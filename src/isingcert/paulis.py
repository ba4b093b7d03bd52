"""Pauli strings, enumeration of local strings, and their action on matrices.

A Pauli string on n qubits is a word over {I, X, Y, Z}.  Strings are encoded
base-4 with the letter order I < X < Y < Z, most significant digit first, so
that integer order on the code equals lexicographic order on the label.  All
enumerations in the package inherit this order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

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


def pauli_sum_matrix(n: int, paulis, coeffs) -> np.ndarray:
    """Dense sum_j coeffs[..., j] P_j on n qubits, as one scatter; coefficients
    (m, T) give an (m, 2^n, 2^n) stack.  np.bincount adds its weights in input
    order, so every entry accumulates the terms in the order given, exactly as
    adding the terms one by one, and row i is bit-identical to coeffs[i] alone.
    """
    coeffs = np.asarray(coeffs)
    dim = 2**n
    out = np.zeros((*coeffs.shape[:-1], dim, dim), dtype=complex)
    if len(paulis):
        flips, phases = zip(*(pauli_phases(p) for p in paulis))
        weights = coeffs.reshape(-1, len(paulis), 1) * np.array(phases)
        cols = np.arange(dim)
        index = ((cols ^ np.array(flips)[:, None]) * dim + cols
                 + np.arange(0, out.size, dim * dim)[:, None, None]).ravel()
        out.real = np.bincount(index, weights.real.ravel(), out.size).reshape(out.shape)
        out.imag = np.bincount(index, weights.imag.ravel(), out.size).reshape(out.shape)
    return out


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
    """Tr[P @ a] for every string P, as one gather a[x ^ flip_P, x] times the
    conjugated phases; each row sum is bit-identical to a one-string sum.
    A stack a (m, d, d) gives (m, len(paulis)), gathered one matrix at a
    time: a sum over one gather of the whole stack can differ in the last bit."""
    flips, phases = zip(*(pauli_phases(p) for p in paulis))
    cols = np.arange(a.shape[-1])
    rows, phases = cols ^ np.array(flips)[:, None], np.conj(phases)
    sums = [np.sum(phases * x[rows, cols], axis=1) for x in a.reshape(-1, *a.shape[-2:])]
    return sums[0] if a.ndim == 2 else np.array(sums)
