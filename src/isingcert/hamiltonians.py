"""Local Hamiltonians as sparse Pauli-coefficient maps, Gibbs states, and
covering nets over a restricted support.

Hamiltonians here are traceless, k-local, with every coefficient in [-1, 1].
The covering net enumerates the grid (eta Z intersect [-1,1])^support by
index, so scans never materialize the whole family.  Every Gibbs state in
the package comes from one stacked map, `gibbs_states`, on spectra of the
shared eig kernel; the net's Gibbs table runs its members through the Pauli
scatter, that eig, `gibbs_states` and the trace-inner gather in stacks of
`oracle.stack_size`.
"""

from __future__ import annotations

import math

import numpy as np

from . import oracle
from .constants import NET_ENUMERATION_BUDGET
from .paulis import (PauliString, check_size, enumerate_local_paulis, pauli_sum_matrix,
                     pauli_trace_inners)

_COEFF_TOL = 1e-12


class LocalHamiltonian:
    """Traceless k-local Hamiltonian given by real Pauli coefficients, with a cached spectrum."""

    _spectrum = None   # (w, v), set on the instance by the first `spectrum()`

    def __init__(self, n: int, k: int, coeffs: dict[PauliString, float]):
        check_size(n, k)
        clean = {}
        for p, h in coeffs.items():
            if p.n != n:
                raise ValueError(f"term {p} has {p.n} qubits, expected {n}")
            if p.is_identity():
                if abs(h) > _COEFF_TOL:
                    raise ValueError("identity coefficient must vanish (traceless)")
                continue
            if p.weight > k:
                raise ValueError(f"term {p} has weight {p.weight} > k={k}")
            if abs(h) > 1.0 + _COEFF_TOL:
                raise ValueError(f"|coefficient| of {p} exceeds 1: {h}")
            if h != 0.0:
                clean[p] = float(h)
        self.n, self.k, self.coeffs = n, k, clean

    def operator_norm(self) -> float:
        """Largest |eigenvalue| of the dense materialization."""
        return float(np.max(np.abs(self.spectrum()[0])))

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (w, v) of `hermitian_eig(to_matrix())`, computed on first use.
        Sound because `coeffs` is never written after construction: `scaled`
        returns a new instance."""
        if self._spectrum is None:
            w, v = oracle.hermitian_eig(self.to_matrix())
            w.flags.writeable = v.flags.writeable = False
            self._spectrum = (w, v)
        return self._spectrum

    def to_matrix(self) -> np.ndarray:
        items = sorted(self.coeffs.items(), key=lambda kv: kv[0].code)
        return pauli_sum_matrix(self.n, [p for p, _ in items], [a for _, a in items])

    def scaled(self, factor: float) -> "LocalHamiltonian":
        return LocalHamiltonian(self.n, self.k, {p: h * factor for p, h in self.coeffs.items()})


def frobenius_norms(coeffs: np.ndarray) -> np.ndarray:
    """The normalized Frobenius norm sqrt(sum_P h_P^2) of each coefficient row
    on the last axis, with the squares added in order, as a Python sum adds
    them: a cumulative sum adds sequentially, where np.sum adds pairwise."""
    sq = coeffs * coeffs
    if not sq.shape[-1]:
        return np.zeros(sq.shape[:-1])
    return np.sqrt(np.cumsum(sq, axis=-1)[..., -1])


def check_beta(beta: float) -> None:
    """Raise ValueError unless the inverse temperature beta is finite and >= 0."""
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")


def gibbs_states(w: np.ndarray, v: np.ndarray, beta) -> np.ndarray:
    """rho = v exp(-beta (w - min w)) v^dag / Tr, made exactly Hermitian as
    (rho + rho^dag) / 2: the Gibbs state of each spectrum (w, v) of a stack
    on its last axes; beta is one value or one per spectrum."""
    beta = np.asarray(beta, dtype=float)[..., None]   # an int past 2^63 would be uint64
    expw = np.exp(-beta * (w - w.min(axis=-1, keepdims=True)))
    expw /= expw.sum(axis=-1, keepdims=True)
    rho = (v * expw[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    rho += np.swapaxes(rho.conj(), -1, -2)
    rho *= 0.5
    return rho


def gibbs_density(h: LocalHamiltonian, beta: float) -> np.ndarray:
    """Exact Gibbs state exp(-beta H) / Tr[exp(-beta H)] from the spectrum of h."""
    check_beta(beta)
    return gibbs_states(*h.spectrum(), beta)


def random_hamiltonian(n: int, k: int, rng) -> LocalHamiltonian:
    """Random k-local Hamiltonian with every weight <= k coefficient drawn
    from U[-1,1]; deterministic given the seed."""
    rng = np.random.default_rng(rng)
    paulis = enumerate_local_paulis(n, k, include_identity=False)
    # one vector draw gives the same stream as one scalar draw per string
    return LocalHamiltonian(n, k, dict(zip(paulis, rng.uniform(-1.0, 1.0, len(paulis)).tolist())))


class HamiltonianNet:
    """Grid family (eta Z intersect [-1,1])^support, enumerable by index."""

    def __init__(self, support, eta: float):
        if not support:
            raise ValueError("net needs a nonempty support")
        support = tuple(support)
        n = support[0].n
        for p in support:
            if p.n != n:
                raise ValueError("support strings act on different qubit counts")
            if p.is_identity():
                raise ValueError("identity cannot be in the support")
        repeated = sorted({p.label for p in support if support.count(p) > 1})
        if repeated:
            raise ValueError(f"support strings must be distinct, got {repeated} more than once")
        if not 0 < eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {eta}")
        # the members are counted in Python integers before the grid is built;
        # a 1/eta past the float range gives more than any budget
        jmax = math.floor(1.0 / eta + 1e-9) if 1.0 / eta < math.inf else math.inf
        if (2 * jmax + 1) ** len(support) > NET_ENUMERATION_BUDGET:
            raise ValueError(f"net has {2 * jmax + 1}^{len(support)} members, "
                             f"over the enumeration budget {NET_ENUMERATION_BUDGET}")
        self.support, self.eta = support, eta
        self.grid = eta * np.arange(-jmax, jmax + 1, dtype=float)   # eta may be a Python int

    @property
    def n(self) -> int:
        return self.support[0].n

    @property
    def size(self) -> int:
        return len(self.grid) ** len(self.support)

    def values(self, index) -> np.ndarray:
        """Grid values of the members `index` (an index or an array of them),
        one row over the support each."""
        g, s = len(self.grid), len(self.support)
        return self.grid[(np.asarray(index)[..., None] // g ** np.arange(s - 1, -1, -1)) % g]

    def matrices(self, values) -> np.ndarray:
        """Dense sum_P values[..., P] P over the support, one matrix per row,
        with the terms added in code order, as `LocalHamiltonian.to_matrix`
        adds them: row i equals the matrix of the Hamiltonian it holds, bit
        for bit."""
        order = sorted(range(len(self.support)), key=lambda i: self.support[i].code)
        return pauli_sum_matrix(self.n, [self.support[i] for i in order],
                                np.asarray(values)[..., order])

    def gibbs_coeff_matrix(self, beta: float) -> np.ndarray:
        """(size, |support|) array of Tr[P rho_i] for every member Gibbs state.

        Members go through in stacks of `oracle.stack_size`: their `matrices`,
        one `hermitian_eig`, `gibbs_states` and one `pauli_trace_inners`
        gather, so row i equals the values of `gibbs_density` of member i's
        LocalHamiltonian, bit for bit.
        """
        check_beta(beta)
        out = np.empty((self.size, len(self.support)))
        size = oracle.stack_size(self.n, 1, len(self.support))
        for start in range(0, self.size, size):
            values = self.values(np.arange(start, min(start + size, self.size)))
            rho = gibbs_states(*oracle.hermitian_eig(self.matrices(values)), beta)
            out[start:start + size] = pauli_trace_inners(self.support, rho).real
        return out
