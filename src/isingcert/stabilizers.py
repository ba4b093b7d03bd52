"""Stabilizer states and their n <= 2 enumeration, which gives the identity
estimator its exact indicator expectation.

A state is described by n independent, pairwise-commuting signed Pauli
generators.  Independence plus commutation guarantees the signed group never
contains -I (a nontrivial product of independent generators is never the
identity string), so any sign pattern is admissible.  Dense vectors are
produced on demand by projector cascades; no symbolic phase algebra is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .paulis import PauliString, pauli_matvec

_LETTER_ZX = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}
_ZX_LETTER = {v: k for k, v in _LETTER_ZX.items()}


def pauli_to_zx(p: PauliString) -> np.ndarray:
    """Length-2n GF(2) vector (z bits then x bits)."""
    z = np.zeros(p.n, dtype=np.uint8)
    x = np.zeros(p.n, dtype=np.uint8)
    for i, d in enumerate(p.digits()):
        z[i], x[i] = _LETTER_ZX[d]
    return np.concatenate([z, x])


def zx_to_pauli(v: np.ndarray) -> PauliString:
    n = len(v) // 2
    code = 0
    for i in range(n):
        code = 4 * code + _ZX_LETTER[(int(v[i]), int(v[n + i]))]
    return PauliString(n, code)


def symplectic_product(u: np.ndarray, v: np.ndarray) -> int:
    n = len(u) // 2
    return int(u[:n] @ v[n:] + u[n:] @ v[:n]) % 2


def paulis_commute(p: PauliString, q: PauliString) -> bool:
    return symplectic_product(pauli_to_zx(p), pauli_to_zx(q)) == 0


def _gf2_rref(rows: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduce over GF(2); returns (reduced rows, pivot columns)."""
    m = rows.copy() % 2
    pivots = []
    r = 0
    for c in range(m.shape[1]):
        sel = None
        for i in range(r, m.shape[0]):
            if m[i, c]:
                sel = i
                break
        if sel is None:
            continue
        m[[r, sel]] = m[[sel, r]]
        for i in range(m.shape[0]):
            if i != r and m[i, c]:
                m[i] ^= m[r]
        pivots.append(c)
        r += 1
        if r == m.shape[0]:
            break
    return m[:r], pivots


@dataclass(frozen=True)
class StabilizerState:
    """Pure stabilizer state given by signed commuting generators."""

    n: int
    generators: tuple[PauliString, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.generators) != self.n or len(self.signs) != self.n:
            raise ValueError(f"need exactly {self.n} generators and signs")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        zx = np.array([pauli_to_zx(g) for g in self.generators])
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if symplectic_product(zx[i], zx[j]):
                    raise ValueError(
                        f"generators {self.generators[i]} and {self.generators[j]} anticommute"
                    )
        rref, _ = _gf2_rref(zx)
        if rref.shape[0] != self.n:
            raise ValueError("generators are not independent")

    @cached_property
    def vector(self) -> np.ndarray:
        """Dense unit vector fixed by every signed generator."""
        return self._project(self.signs)

    def _project(self, signs) -> np.ndarray:
        # Apply the commuting projectors (I + s G)/2 to trial vectors until
        # one survives; the target state has support on some basis vector, so
        # the loop terminates.
        dim = 2**self.n

        def trials():
            yield np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
            for j in range(dim):
                e = np.zeros(dim, dtype=complex)
                e[j] = 1.0
                yield e

        for w in trials():
            for g, s in zip(self.generators, signs):
                w = 0.5 * (w + s * pauli_matvec(g, w))
            norm = np.linalg.norm(w)
            if norm > 1e-9:
                return w / norm
        raise RuntimeError("projector cascade annihilated every trial vector")


@lru_cache(maxsize=4)
def enumerate_stabilizer_states(n: int) -> tuple[StabilizerState, ...]:
    """All pure stabilizer states, deterministic order (n <= 2 only).

    Counts: 6 for one qubit, 60 for two.
    """
    if n == 1:
        out = []
        for code in (1, 2, 3):  # X, Y, Z
            for s in (1, -1):
                out.append(StabilizerState(1, (PauliString(1, code),), (s,)))
        return tuple(out)
    if n == 2:
        groups = {}
        strings = [PauliString(2, c) for c in range(1, 16)]
        for i, p in enumerate(strings):
            for q in strings[i + 1:]:
                if not paulis_commute(p, q):
                    continue
                r = zx_to_pauli(pauli_to_zx(p) ^ pauli_to_zx(q))
                key = tuple(sorted((p.code, q.code, r.code)))
                groups.setdefault(key, (PauliString(2, key[0]), PauliString(2, key[1])))
        out = []
        for key in sorted(groups):
            g1, g2 = groups[key]
            for s1 in (1, -1):
                for s2 in (1, -1):
                    out.append(StabilizerState(2, (g1, g2), (s1, s2)))
        return tuple(out)
    raise ValueError(f"enumeration supported for n <= 2, got n={n}")


@lru_cache(maxsize=4)
def stabilizer_state_matrix(n: int) -> np.ndarray:
    """Stacked vectors of the enumerated states, one row per state (n <= 2)."""
    states = enumerate_stabilizer_states(n)
    return np.array([s.vector for s in states])
