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


class PauliString:
    """An n-letter Pauli word, stored as a base-4 integer code.  Immutable,
    equal and hashed by (n, code), so a string serves as a dict and cache key."""

    __slots__ = ("n", "code")

    def __init__(self, n: int, code: int):
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        if not 0 <= code < 4**n:
            raise ValueError(f"code {code} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "code", code)

    def __setattr__(self, name, value):
        raise AttributeError(f"PauliString is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PauliString is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.code) == (other.n, other.code)

    def __hash__(self) -> int:
        return hash((self.n, self.code))

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        code = 0
        for ch in label:
            code = 4 * code + LETTERS.index(ch)
        return cls(len(label), code)

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

    def is_identity(self) -> bool:
        return self.code == 0

    def __str__(self) -> str:
        return self.label


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


# i^k for k = 0..3 as Python's 1j**k, signs of zero included
_I_POWERS = np.array([1j**k for k in range(4)])


@functools.lru_cache(maxsize=64)
def pauli_plan(n: int, codes: tuple[int, ...]) -> PauliPlan:
    """The action plan of the strings with these codes on n qubits, built
    once per (n, codes).  String j flips the qubits where its letter is X
    or Y (qubit 0 is the most significant bit of x), and its phase at x is
    i^{#Y} (-1)^{popcount(x & zy_j)}, with zy_j the qubits where it is Y or Z."""
    dim, shifts = 2**n, np.arange(n - 1, -1, -1)
    digits = np.array(codes, dtype=np.int64).reshape(-1, 1) >> 2 * shifts & 3
    bits = 1 << shifts
    flips = np.where((digits == 1) | (digits == 2), bits, 0).sum(axis=1)
    zy = np.where(digits >= 2, bits, 0).sum(axis=1)
    num_y = (digits == 2).sum(axis=1)
    cols = np.arange(dim)
    phases = _I_POWERS[num_y % 4, None] * np.where(np.bitwise_count(cols & zy[:, None]) & 1,
                                                   -1.0, 1.0)
    index = (cols ^ flips[:, None]) * dim + cols
    odd = num_y[:, None] % 2 == 1
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
    """Dense sum_j coeffs[..., j] P_j on n qubits, for real coefficients;
    coefficients (m, T) give an (m, 2^n, 2^n) stack.  The stack is one
    np.bincount into its float view, over the plan's bins plus one offset per
    matrix, and np.bincount adds its weights in input order.  Each weight
    c * sign goes to the one part its phase has: the parts left out would add
    exact zeros, so every entry is bit-identical to adding the terms one by
    one, in the order given, and row i is bit-identical to coeffs[i] alone.
    """
    coeffs = np.asarray(coeffs)
    dim = 2**n
    lead = coeffs.shape[:-1]
    c = coeffs.reshape(math.prod(lead), len(paulis))
    plan = _plan(n, paulis)
    size = 2 * len(c) * dim * dim
    bins = plan.bins + np.arange(0, size, 2 * dim * dim).reshape(-1, 1, 1)
    out = np.bincount(bins.ravel(), (c[:, :, None] * plan.signs).ravel(), size)
    return out.view(complex).reshape(*lead, dim, dim)


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
