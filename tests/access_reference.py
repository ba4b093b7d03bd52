"""Literal reference for the simulated access model: stabilizer states as
signed commuting generators, per-experiment plans, Born sampling and the
uniform stabilizer sampler at any n.

The package certifies on query steps alone and draws the identity
estimator's hit count from its exact law; the tests check that law, and the
charges that go with it, against the literal protocol here.  An experiment
prepares a state, runs its steps and measures; the estimator's experiment
prepares a uniform stabilizer state and measures in its stabilizer basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from hamiltonian_reference import net_member
from isingcert.dynamics import (
    NO_NOISE,
    ExperimentLedger,
    NoiseModel,
    charge_plan,
    logical_queries,
    net_unitary,
)
from isingcert.hamiltonians import HamiltonianNet, LocalHamiltonian, gibbs_density
from isingcert.identity_estimator import IdentityCoeffEstimate, sample_count
from isingcert.oracle import clip_distribution, trace_distance
from isingcert.paulis import PauliString
from pauli_reference import pauli_matvec


# ---------------------------------------------------------------- stabilizer states

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


# ---------------------------------------------------------------- stabilizer bases

def basis_vector(state: StabilizerState, outcome: int) -> np.ndarray:
    """Joint eigenbasis member: generator i eigenvalue flips iff bit i set."""
    signs = tuple(
        -s if (outcome >> (state.n - 1 - i)) & 1 else s for i, s in enumerate(state.signs)
    )
    return state._project(signs)


def basis_matrix(state: StabilizerState) -> np.ndarray:
    """Columns are the 2^n stabilizer-basis vectors, outcome 0 first."""
    return np.column_stack([basis_vector(state, b) for b in range(2**state.n)])


def state_index(state: StabilizerState) -> int:
    """Index of `state` in the n <= 2 enumeration (vector comparison)."""
    mat = np.array([s.vector for s in enumerate_stabilizer_states(state.n)])
    overlaps = np.abs(mat.conj() @ state.vector)
    idx = int(np.argmax(overlaps))
    if overlaps[idx] < 1.0 - 1e-8:
        raise ValueError("state does not match any enumerated stabilizer state")
    return idx


# ---------------------------------------------------------------- uniform sampler

def _gf2_in_span(rref: np.ndarray, pivots: list[int], v: np.ndarray) -> bool:
    w = v.copy() % 2
    for row, c in zip(rref, pivots):
        if w[c]:
            w ^= row
    return not w.any()


def _gf2_nullspace(rows: np.ndarray, width: int) -> np.ndarray:
    """Basis of the null space of `rows` (GF(2)); full space if no rows."""
    if rows.shape[0] == 0:
        return np.eye(width, dtype=np.uint8)
    rref, pivots = _gf2_rref(rows)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(width, dtype=np.uint8)
        v[fc] = 1
        for row, pc in zip(rref, pivots):
            if row[fc]:
                v[pc] = 1
        basis.append(v)
    return np.array(basis, dtype=np.uint8)


def sample_stabilizer_state(n: int, rng, method: str = "auto") -> StabilizerState:
    """Exactly uniform draw over all pure stabilizer states of n qubits.

    For n <= 2, method="auto" takes a uniform index into the full
    enumeration.  Otherwise generators are drawn sequentially: at step i the
    candidate set is the symplectic commutant of the chosen generators minus
    their span, whose size depends only on i, so every maximal commuting
    subgroup is produced by the same number of equally likely generator
    sequences; uniform signs then make the signed draw uniform.
    """
    if not 1 <= n <= 12:
        raise ValueError(f"n={n} out of supported range [1, 12]")
    rng = np.random.default_rng(rng)
    if method not in ("auto", "sequential"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and n <= 2:
        states = enumerate_stabilizer_states(n)
        return states[int(rng.integers(len(states)))]

    chosen: list[np.ndarray] = []
    rref = np.zeros((0, 2 * n), dtype=np.uint8)
    pivots: list[int] = []
    for _ in range(n):
        if chosen:
            constraints = np.array([np.concatenate([v[n:], v[:n]]) for v in chosen])
        else:
            constraints = np.zeros((0, 2 * n), dtype=np.uint8)
        null_basis = _gf2_nullspace(constraints, 2 * n)
        while True:
            bits = rng.integers(0, 2, size=null_basis.shape[0]).astype(np.uint8)
            v = (bits @ null_basis) % 2
            v = v.astype(np.uint8)
            if v.any() and not _gf2_in_span(rref, pivots, v):
                break
        chosen.append(v)
        rref, pivots = _gf2_rref(np.array(chosen))
    signs = tuple(1 if b else -1 for b in rng.integers(0, 2, size=n))
    generators = tuple(zx_to_pauli(v) for v in chosen)
    return StabilizerState(n, generators, signs)


# ---------------------------------------------------------------- experiments

@dataclass(eq=False)
class ExperimentPlan:
    """Prepare, run steps, measure.  H enters only through query slots.

    measurement is either "computational", an orthonormal-column matrix, or
    "stabilizer" (joint eigenbasis of the prepared stabilizer state).
    """

    initial_state: StabilizerState | np.ndarray
    steps: tuple
    measurement: object = "computational"

    @property
    def n(self) -> int:
        if isinstance(self.initial_state, StabilizerState):
            return self.initial_state.n
        dim = self.initial_state.shape[0]
        return dim.bit_length() - 1

    def logical_queries(self) -> int:
        return logical_queries(self.steps)


def single_query_plan(steps, state: StabilizerState) -> ExperimentPlan:
    """The estimator's experiment on `state`: run the shared steps once and
    measure in the state's stabilizer basis."""
    return ExperimentPlan(state, tuple(steps), "stabilizer")


def _initial_density(plan: ExperimentPlan) -> np.ndarray:
    state = plan.initial_state
    if isinstance(state, StabilizerState):
        v = state.vector
        return np.outer(v, v.conj())
    if state.ndim == 1:
        if abs(np.linalg.norm(state) - 1.0) > 1e-9:
            raise ValueError("initial state vector is not normalized")
        return np.outer(state, state.conj())
    if abs(np.trace(state).real - 1.0) > 1e-9:
        raise ValueError("initial density matrix does not have trace 1")
    return state


def _measurement_matrix(plan: ExperimentPlan) -> np.ndarray:
    dim = 2**plan.n
    m = plan.measurement
    if isinstance(m, str):
        if m == "computational":
            return np.eye(dim, dtype=complex)
        if m == "stabilizer":
            if not isinstance(plan.initial_state, StabilizerState):
                raise ValueError("stabilizer basis needs a stabilizer initial state")
            return basis_matrix(plan.initial_state)
        raise ValueError(f"unknown measurement {m!r}")
    m = np.asarray(m)
    if m.shape != (dim, dim) or np.max(np.abs(m.conj().T @ m - np.eye(dim))) > 1e-9:
        raise ValueError("measurement basis is not an orthonormal 2^n frame")
    return m


def outcome_distribution(
    plan: ExperimentPlan, h_true: LocalHamiltonian, noise: NoiseModel = NO_NOISE
) -> np.ndarray:
    """Exact Born distribution of the noisy circuit over basis outcomes."""
    rho = _initial_density(plan)
    basis = _measurement_matrix(plan)
    u = net_unitary(plan.steps, h_true, plan.n)
    retain = noise.retain_factor(plan.n, plan.logical_queries())
    evolved = u @ rho @ u.conj().T
    probs = np.einsum("ij,jk,ki->i", basis.conj().T, evolved, basis).real
    dim = probs.shape[0]
    return clip_distribution(retain * probs + (1.0 - retain) / dim)


def run_experiment(
    plan: ExperimentPlan,
    h_true: LocalHamiltonian,
    noise: NoiseModel,
    rng,
    ledger: ExperimentLedger | None = None,
) -> int:
    """Sample one measurement outcome and charge the ledger."""
    rng = np.random.default_rng(rng)
    probs = outcome_distribution(plan, h_true, noise)
    outcome = int(rng.choice(len(probs), p=probs))
    if ledger is not None:
        charge_plan(plan.steps, ledger)
    return outcome


def estimate_identity_sq_literal(
    steps,
    h_true: LocalHamiltonian,
    n: int,
    eps: float,
    delta: float,
    rng,
    ledger: ExperimentLedger | None = None,
    noise: NoiseModel = NO_NOISE,
) -> IdentityCoeffEstimate:
    """The memoryless protocol run experiment by experiment: each samples a
    stabilizer state, builds its plan and goes through run_experiment."""
    rng = np.random.default_rng(rng)
    m = sample_count(eps, delta)
    hits = 0
    for _ in range(m):
        plan = single_query_plan(steps, sample_stabilizer_state(n, rng))
        hits += run_experiment(plan, h_true, noise, rng, ledger) == 0
    mean = hits / m
    raw = (1.0 + 2.0**-n) * mean - 2.0**-n
    return IdentityCoeffEstimate(min(1.0, max(0.0, raw)), raw, m, eps, delta)


# ---------------------------------------------------------------- covering net

def round_to_grid(h: float, eta: float) -> float:
    """Nearest point of (eta Z) intersect [-1,1]; ties go toward zero."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    jmax = math.floor(1.0 / eta + 1e-9)
    a = abs(h) / eta
    j = math.floor(a + 0.5)
    if j - a == 0.5:  # exact tie
        j -= 1
    j = min(j, jmax)
    return math.copysign(j * eta, h) if j else 0.0


def index_of_values(net: HamiltonianNet, values) -> int:
    """Index of the member with these grid values, aligned with the support."""
    g = len(net.grid)
    idx = 0
    for v in values:
        j = int(round(v / net.eta)) + (g - 1) // 2
        if not 0 <= j < g or abs(net.grid[j] - v) > 1e-9:
            raise ValueError(f"value {v} is not on the grid")
        idx = idx * g + j
    return idx


def round_member_index(net: HamiltonianNet, h: LocalHamiltonian) -> int:
    """Index of the member obtained by rounding h coefficient-wise."""
    sup = set(net.support)
    for p in h.coeffs:
        if p not in sup:
            raise ValueError(f"{p} carries weight but is outside the net support")
    return index_of_values(net, [round_to_grid(h.coeffs.get(p, 0.0), net.eta)
                                 for p in net.support])


@dataclass(frozen=True)
class CoveringCheck:
    distance: float
    bound: float
    member_index: int


def net_covering_check(h: LocalHamiltonian, net: HamiltonianNet, beta: float) -> CoveringCheck:
    """Round h onto the net and measure the exact Gibbs trace distance.

    The distance must come out <= 200 beta n^k eta for any admissible h.
    """
    idx = round_member_index(net, h)
    rounded = net_member(net, idx)
    dist = trace_distance(gibbs_density(h, beta), gibbs_density(rounded, beta))
    k = max(p.weight for p in net.support)
    bound = 200.0 * beta * net.n**k * net.eta
    return CoveringCheck(dist, bound, idx)
