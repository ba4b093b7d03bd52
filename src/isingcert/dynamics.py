"""Simulated time-evolution access: experiments are prepare / query / fixed
unitary / measure sequences, with every queried second charged to a ledger.

Noise is depolarizing only.  SPAM splits a diamond-norm budget evenly between
a channel after preparation and one before measurement; per-query noise
attaches one depolarizing channel to each logical query (a compiled Trotter
fragment counts as a single logical query even though it charges all of its
internal evolution segments to the ledger).  Depolarizing channels commute
with unitaries, so the final state is always
(1 - Lambda) U rho U^dag + Lambda I/2^n for an accumulated Lambda, which is
how outcome distributions are computed exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import TROTTER_KAPPA, TROTTER_STEP_BUDGET
from .hamiltonians import LocalHamiltonian, format_hamiltonian, parse_hamiltonian
from .oracle import clip_distribution, evolve
from .stabilizers import StabilizerState


@dataclass
class ExperimentLedger:
    """Cost accounting for the access model; monotone over a run.

    The ledger keeps an integer query count per distinct query time |t| and
    derives every total from those counts, so charging m experiments in one
    batch gives exactly the snapshot of m single charges.
    """

    queries_by_time: dict = field(default_factory=dict)
    experiment_count: int = 0

    def charge_queries(self, count: int, each_time: float) -> None:
        if count <= 0:
            return
        t = abs(each_time)
        if t <= 0:
            raise ValueError("query time must be nonzero")
        self.queries_by_time[t] = self.queries_by_time.get(t, 0) + count

    @property
    def total_evolution_time(self) -> float:
        return math.fsum(count * t for t, count in self.queries_by_time.items())

    @property
    def query_count(self) -> int:
        return sum(self.queries_by_time.values())

    @property
    def min_query_time(self) -> float:
        return min(self.queries_by_time, default=math.inf)

    def charge_experiments(self, count: int = 1) -> None:
        self.experiment_count += count

    def snapshot(self) -> dict:
        return {
            "total_evolution_time": self.total_evolution_time,
            "query_count": self.query_count,
            "min_query_time": self.min_query_time if self.query_count else None,
            "experiment_count": self.experiment_count,
        }


@dataclass(frozen=True)
class NoiseModel:
    """Diamond-norm budgets for SPAM and per-logical-query depolarizing noise."""

    spam_diamond_budget: float = 0.0
    per_query_diamond_budget: float = 0.0

    def __post_init__(self):
        if self.spam_diamond_budget < 0 or self.per_query_diamond_budget < 0:
            raise ValueError("noise budgets must be nonnegative")

    def retain_factor(self, n: int, logical_queries: int) -> float:
        """Product of (1 - lambda) over all channels in one experiment."""
        lam_spam = diamond_to_depolarizing(0.5 * self.spam_diamond_budget, n)
        lam_q = diamond_to_depolarizing(self.per_query_diamond_budget, n)
        return (1.0 - lam_spam) ** 2 * (1.0 - lam_q) ** logical_queries


NO_NOISE = NoiseModel()


def diamond_to_depolarizing(budget: float, n: int) -> float:
    """Depolarizing parameter whose diamond distance to identity is `budget`.

    For D_lam(rho) = (1-lam) rho + lam I/2^n the diamond distance is
    2 lam (1 - 4^-n), maximized by one half of a maximally entangled pair.
    """
    lam = budget / (2.0 * (1.0 - 4.0 ** (-n)))
    if lam > 1.0:
        raise ValueError(f"diamond budget {budget} exceeds the depolarizing range")
    return lam


@dataclass(frozen=True)
class QueryStep:
    """One query to the unknown evolution exp(-i t H); t < 0 uses the inverse."""

    t: float

    def __post_init__(self):
        if self.t == 0:
            raise ValueError("query time must be nonzero")


@dataclass(eq=False)
class UnitaryStep:
    """A fixed, known unitary; free of ledger charge."""

    name: str
    matrix: np.ndarray


@dataclass(eq=False)
class TrotterFragment:
    """Compiled approximation V of exp(-i t (H - H0)).

    V = (e^{-i t H / 2l} e^{i t H0 / l} e^{-i t H / 2l})^l with
    l = ceil(kappa sqrt((c t)^3 / eps_trott)).  The 2l H-segments are the
    only charged queries; the H0 factors are known unitaries.  One fragment
    is one logical query for noise purposes.
    """

    h0: LocalHamiltonian
    t: float
    steps: int
    eps_trott: float
    op_norm_bound: float
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def query_count(self) -> int:
        return 2 * self.steps

    @property
    def query_time(self) -> float:
        return self.t / (2 * self.steps)

    @property
    def evolution_time(self) -> float:
        return self.query_count * self.query_time

    def realize(self, h_true: LocalHamiltonian) -> np.ndarray:
        key = id(h_true)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is h_true:
            return hit[1]
        a = evolve(h_true, self.t / (2 * self.steps))
        b = evolve(self.h0, -self.t / self.steps)  # e^{+i t H0 / l}
        v = np.linalg.matrix_power(a @ b @ a, self.steps)
        self._cache.clear()
        self._cache[key] = (h_true, v)
        return v


def trotter_compile(
    h0: LocalHamiltonian,
    t: float,
    eps_trott: float,
    op_norm_bound: float,
    kappa: float = TROTTER_KAPPA,
    step_budget: int = TROTTER_STEP_BUDGET,
) -> TrotterFragment:
    """Build the fragment realizing exp(-i t (H - H0)) to operator-norm error
    eps_trott, for any H with operator norm at most op_norm_bound."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if eps_trott <= 0:
        raise ValueError(f"eps_trott must be positive, got {eps_trott}")
    c = max(op_norm_bound, 1e-12)
    steps = max(1, math.ceil(kappa * math.sqrt((c * t) ** 3 / eps_trott)))
    if steps > step_budget:
        raise ValueError(f"fragment needs {steps} steps, over the budget {step_budget}")
    return TrotterFragment(h0, t, steps, eps_trott, op_norm_bound)


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
        return sum(1 for s in self.steps if isinstance(s, (QueryStep, TrotterFragment)))


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
            return plan.initial_state.basis_matrix()
        raise ValueError(f"unknown measurement {m!r}")
    m = np.asarray(m)
    if m.shape != (dim, dim) or np.max(np.abs(m.conj().T @ m - np.eye(dim))) > 1e-9:
        raise ValueError("measurement basis is not an orthonormal 2^n frame")
    return m


def net_unitary(plan: ExperimentPlan, h_true: LocalHamiltonian) -> np.ndarray:
    dim = 2**plan.n
    u = np.eye(dim, dtype=complex)
    for step in plan.steps:
        if isinstance(step, QueryStep):
            u = evolve(h_true, step.t) @ u
        elif isinstance(step, TrotterFragment):
            u = step.realize(h_true) @ u
        elif isinstance(step, UnitaryStep):
            u = step.matrix @ u
        else:
            raise TypeError(f"unknown plan step {step!r}")
    return u


def charge_plan(plan: ExperimentPlan, ledger: ExperimentLedger, repeat: int = 1) -> None:
    for step in plan.steps:
        if isinstance(step, QueryStep):
            ledger.charge_queries(repeat, step.t)
        elif isinstance(step, TrotterFragment):
            ledger.charge_queries(repeat * step.query_count, step.query_time)
    ledger.charge_experiments(repeat)


def outcome_distribution(
    plan: ExperimentPlan, h_true: LocalHamiltonian, noise: NoiseModel = NO_NOISE
) -> np.ndarray:
    """Exact Born distribution of the noisy circuit over basis outcomes."""
    rho = _initial_density(plan)
    basis = _measurement_matrix(plan)
    u = net_unitary(plan, h_true)
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
        charge_plan(plan, ledger)
    return outcome


def plan_to_json(plan: ExperimentPlan) -> str:
    """Replayable structured-text form of a plan."""
    if isinstance(plan.initial_state, StabilizerState):
        init = {"type": "stabilizer", **plan.initial_state.descriptor()}
    else:
        state = np.asarray(plan.initial_state)
        init = {
            "type": "vector" if state.ndim == 1 else "density",
            "re": np.real(state).tolist(),
            "im": np.imag(state).tolist(),
        }
    steps = []
    for s in plan.steps:
        if isinstance(s, QueryStep):
            steps.append({"type": "query", "t": s.t})
        elif isinstance(s, TrotterFragment):
            steps.append({
                "type": "trotter",
                "t": s.t,
                "steps": s.steps,
                "eps_trott": s.eps_trott,
                "op_norm_bound": s.op_norm_bound,
                "h0": format_hamiltonian(s.h0),
            })
        elif isinstance(s, UnitaryStep):
            steps.append({
                "type": "unitary",
                "name": s.name,
                "re": np.real(s.matrix).tolist(),
                "im": np.imag(s.matrix).tolist(),
            })
    if isinstance(plan.measurement, str):
        meas = {"type": plan.measurement}
    else:
        m = np.asarray(plan.measurement)
        meas = {"type": "basis", "re": np.real(m).tolist(), "im": np.imag(m).tolist()}
    return json.dumps({"initial_state": init, "steps": steps, "measurement": meas},
                      sort_keys=True)


def plan_from_json(text: str) -> ExperimentPlan:
    from .paulis import PauliString

    data = json.loads(text)
    init = data["initial_state"]
    if init["type"] == "stabilizer":
        state = StabilizerState(
            init["n"],
            tuple(PauliString.from_label(g) for g in init["generators"]),
            tuple(init["signs"]),
        )
    else:
        state = np.array(init["re"]) + 1j * np.array(init["im"])
    steps = []
    for s in data["steps"]:
        if s["type"] == "query":
            steps.append(QueryStep(s["t"]))
        elif s["type"] == "trotter":
            steps.append(TrotterFragment(
                parse_hamiltonian(s["h0"]), s["t"], s["steps"],
                s["eps_trott"], s["op_norm_bound"],
            ))
        elif s["type"] == "unitary":
            steps.append(UnitaryStep(s["name"], np.array(s["re"]) + 1j * np.array(s["im"])))
        else:
            raise ValueError(f"unknown step type {s['type']!r}")
    meas = data["measurement"]
    if meas["type"] in ("computational", "stabilizer"):
        measurement = meas["type"]
    else:
        measurement = np.array(meas["re"]) + 1j * np.array(meas["im"])
    return ExperimentPlan(state, tuple(steps), measurement)
