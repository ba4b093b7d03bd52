"""Pauli strings, enumeration of local strings, and their action on matrices.

A Pauli string on n qubits is a word over {I, X, Y, Z}.  Strings are encoded
base-4 with the letter order I < X < Y < Z, most significant digit first, so
that integer order on the code equals lexicographic order on the label.  All
enumerations in the package inherit this order.

The two kernels that act with a list of strings on matrices, the dense sum
`pauli_sum_matrix` and the trace inner products `pauli_trace_inners`, both
read the list's cached `pauli_plan`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LETTERS = "IXYZ"
MAX_QUBITS = 12


def check_size(n: int, k: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_QUBITS and 0 <= k <= n."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n={n} out of supported range [1, {MAX_QUBITS}]")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range [0, {n}]")


@dataclass(frozen=True, slots=True)
class PauliString:
    """An n-letter Pauli word, stored as a base-4 integer code."""

    n: int
    code: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        if not 0 <= self.code < 4**self.n:
            raise ValueError(f"code {self.code} out of range for n={self.n}")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        code = 0
        for ch in label:
            code = 4 * code + LETTERS.index(ch)
        return cls(len(label), code)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0)

    @property
    def label(self) -> str:
        return "".join(LETTERS[d] for d in self.digits())

    def digits(self) -> tuple[int, ...]:
        """Per-qubit letter indices, qubit 0 first."""
        return tuple(self.code >> 2 * i & 3 for i in range(self.n - 1, -1, -1))

    @property
    def weight(self) -> int:
        # a letter is not I iff one of its bits is set; the mask keeps each low bit
        return ((self.code | self.code >> 1) & (4**self.n - 1) // 3).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.digits()) if d != 0)

    def is_identity(self) -> bool:
        return self.code == 0

    def __str__(self) -> str:
        return self.label

    def __lt__(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("cannot order Pauli strings on different qubit counts")
        return self.code < other.code

    def __le__(self, other: "PauliString") -> bool:
        return self == other or self < other


def enumerate_local_paulis(n: int, k: int, include_identity: bool = True) -> list[PauliString]:
    """All Pauli strings of weight <= k on n qubits, in lexicographic order.

    The count is sum_{l=0..k} 3^l C(n,l), minus one if the identity is
    excluded, and never exceeds 100 n^k.  The strings are built once per
    (n, k, include_identity); every call returns a new list.
    """
    return list(_local_paulis(n, k, include_identity))


@functools.lru_cache(maxsize=64)
def _local_paulis(n: int, k: int, include_identity: bool) -> tuple[PauliString, ...]:
    check_size(n, k)
    return tuple(PauliString(n, c) for c in sorted(
        sum(d << 2 * (n - 1 - q) for q, d in zip(sites, letters))
        for l in range(0 if include_identity else 1, k + 1)
        for sites in itertools.combinations(range(n), l)
        for letters in itertools.product((1, 2, 3), repeat=l)
    ))


def local_pauli_count(n: int, k: int) -> int:
    """Closed-form count sum_{l=0..k} 3^l C(n,l), identity included."""
    return sum(3**l * math.comb(n, l) for l in range(k + 1))


@functools.lru_cache(maxsize=1024)
def pauli_phases(p: PauliString) -> tuple[int, np.ndarray]:
    """Action data for p: p|x> = phases[x] * |x ^ flip_mask>.

    flip_mask has a bit per qubit where the letter is X or Y (qubit 0 is the
    most significant bit, matching the tensor-product index convention).
    phases[x] = i^{#Y} * (-1)^{popcount(x & zy_mask)}.  Results are cached
    per string, so the phase array is read-only.
    """
    digits = p.digits()
    n = p.n
    flip = 0
    zy = 0
    num_y = 0
    for i, d in enumerate(digits):
        bit = 1 << (n - 1 - i)
        if d in (1, 2):
            flip |= bit
        if d in (2, 3):
            zy |= bit
        if d == 2:
            num_y += 1
    x = np.arange(2**n, dtype=np.uint64)
    parity = np.bitwise_count(x & np.uint64(zy)) & 1
    phases = ((1j**num_y) * np.where(parity, -1.0, 1.0)).astype(complex)
    phases.flags.writeable = False
    return flip, phases


class PauliPlan(NamedTuple):
    """The action of a list of T strings on n qubits, read-only.  String j
    puts its phase at the flat entry index[j, x] = (x ^ flip_j) 2^n + x of a
    2^n x 2^n matrix.  That phase is signs[j, x] = +-1 for an even number of
    Y, and i signs[j, x] for an odd number, so it lands in the float
    bins[j, x] = 2 index[j, x] + (#Y odd) of the matrix viewed as floats."""

    index: np.ndarray         # (T, 2^n)
    conj_phases: np.ndarray   # (T, 2^n)
    bins: np.ndarray          # (T, 2^n)
    signs: np.ndarray         # (T, 2^n)


@functools.lru_cache(maxsize=64)
def pauli_plan(n: int, codes: tuple[int, ...]) -> PauliPlan:
    """The action plan of the strings with these codes on n qubits, built
    once per (n, codes) from `pauli_phases`."""
    dim = 2**n
    flips = np.zeros(len(codes), dtype=np.intp)
    phases = np.zeros((len(codes), dim), dtype=complex)
    for j, code in enumerate(codes):
        flips[j], phases[j] = pauli_phases(PauliString(n, code))
    cols = np.arange(dim)
    index = (cols ^ flips[:, None]) * dim + cols
    odd = phases[:, :1].real == 0   # phases[:, 0] = i^{#Y}
    plan = PauliPlan(index, phases.conj(), 2 * index + odd,
                     np.where(odd, phases.imag, phases.real))
    for a in plan:
        a.flags.writeable = False
    return plan


def _plan(n: int, paulis) -> PauliPlan:
    if len(paulis) and paulis[0].n != n:
        raise ValueError(f"strings on {paulis[0].n} qubits do not act on {n} qubits")
    return pauli_plan(n, tuple(p.code for p in paulis))


def pauli_sum_matrix(n: int, paulis, coeffs) -> np.ndarray:
    """Dense sum_j coeffs[..., j] P_j on n qubits; coefficients (m, T) give an
    (m, 2^n, 2^n) stack.  The stack is one np.bincount into its float view,
    over the plan's bins plus one offset per matrix, and np.bincount adds
    its weights in input order.  Real coefficients put c * sign in the one
    part each phase has: the parts left out would add exact zeros, so every
    entry is bit-identical to adding the terms one by one, in the order
    given.  Complex coefficients put both parts of c * phase, in the same
    order.  Row i is bit-identical to coeffs[i] alone.
    """
    coeffs = np.asarray(coeffs)
    dim = 2**n
    lead = coeffs.shape[:-1]
    c = coeffs.reshape(math.prod(lead), len(paulis))
    plan = _plan(n, paulis)
    if np.iscomplexobj(c):
        bins = 2 * plan.index[..., None] + np.array([0, 1])
        weights = (c[:, :, None] * plan.conj_phases.conj()).view(float)
    else:
        bins, weights = plan.bins, c[:, :, None] * plan.signs
    size = 2 * len(c) * dim * dim
    bins = bins + np.arange(0, size, 2 * dim * dim).reshape(-1, *(1,) * bins.ndim)
    out = np.bincount(bins.ravel(), weights.ravel(), size)
    return out.view(complex).reshape(*lead, dim, dim)


def pauli_to_matrix(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli string."""
    return pauli_sum_matrix(p.n, [p], [1.0])


def pauli_matvec(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """Apply a Pauli string to a state vector in O(2^n)."""
    flip, phases = pauli_phases(p)
    out = np.empty_like(vec, dtype=complex)
    cols = np.arange(vec.shape[0])
    out[cols ^ flip] = phases * vec
    return out


def pauli_trace_inners(paulis, a: np.ndarray) -> np.ndarray:
    """Tr[P @ a] for every string P: sum_x conj(phase_P[x]) a[x ^ flip_P, x].
    A stack a (..., d, d) gives (..., len(paulis)) from one gather of the
    plan's flat index over the whole stack; the C-contiguous products are
    summed row by row in one reduction, so each sum is bit-identical to the
    sum over one matrix, or over one string."""
    a = np.asarray(a)
    dim = a.shape[-1]
    plan = _plan(dim.bit_length() - 1, paulis)
    products = a.reshape(-1, dim * dim).take(plan.index, axis=1) * plan.conj_phases
    sums = np.add.reduce(products.reshape(-1, dim), axis=-1)
    return sums.reshape(*a.shape[:-2], len(paulis))
