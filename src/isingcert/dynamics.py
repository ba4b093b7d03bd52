"""Simulated time-evolution access: an experiment runs a sequence of query
steps, each a query to exp(-i t H) or a compiled Trotter fragment.  A step
charges `query_count` queries of `query_time` each to a ledger, and
`realize(h_true)` gives its unitary.

Noise is depolarizing only.  SPAM splits a diamond-norm budget evenly between
a channel after preparation and one before measurement; per-query noise
attaches one depolarizing channel to each step, which is one logical query
even when it charges many (a Trotter fragment's segments).  Depolarizing
channels commute with unitaries, so the final state is always
(1 - Lambda) U rho U^dag + Lambda I/2^n for an accumulated Lambda, which is
how outcome probabilities are computed exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import TROTTER_KAPPA, TROTTER_STEP_BUDGET
from .errors import BudgetExceededError
from .hamiltonians import LocalHamiltonian
from .oracle import evolve


class ExperimentLedger:
    """Cost accounting for the access model; monotone over a run.

    The ledger keeps an integer query count per distinct query time |t| and
    derives every total from those counts, so charging m experiments in one
    batch gives exactly the snapshot of m single charges.
    """

    def __init__(self):
        self.queries_by_time = {}   # |t| -> count of queries of that time
        self.experiment_count = 0

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

    def snapshot(self) -> dict:
        return {
            "total_evolution_time": self.total_evolution_time,
            "query_count": self.query_count,
            "min_query_time": self.min_query_time if self.query_count else None,
            "experiment_count": self.experiment_count,
        }


class NoiseModel:
    """Diamond-norm budgets for SPAM and per-logical-query depolarizing noise."""

    def __init__(self, spam_diamond_budget: float = 0.0, per_query_diamond_budget: float = 0.0):
        if spam_diamond_budget < 0 or per_query_diamond_budget < 0:
            raise ValueError("noise budgets must be nonnegative")
        self.spam_diamond_budget = spam_diamond_budget
        self.per_query_diamond_budget = per_query_diamond_budget

    def retain_factor(self, n: int, queries: int) -> float:
        """Product of (1 - lambda) over all channels in one experiment."""
        lam_spam = diamond_to_depolarizing(0.5 * self.spam_diamond_budget, n)
        lam_q = diamond_to_depolarizing(self.per_query_diamond_budget, n)
        return (1.0 - lam_spam) ** 2 * (1.0 - lam_q) ** queries


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


class QueryStep:
    """One query to the unknown evolution exp(-i t H); t < 0 uses the inverse."""

    query_count = 1

    def __init__(self, t: float):
        if t == 0:
            raise ValueError("query time must be nonzero")
        self.t = self.query_time = t

    def realize(self, h_true: LocalHamiltonian) -> np.ndarray:
        return evolve(h_true, self.t)


class TrotterFragment:
    """Compiled approximation V of exp(-i t (H - H0)).

    V = (e^{-i t H / 2l} e^{i t H0 / l} e^{-i t H / 2l})^l with
    l = ceil(kappa sqrt((c t)^3 / eps_trott)).  The 2l H-segments are the
    only charged queries; the H0 factors are known unitaries.  One fragment
    is one logical query for noise purposes.
    """

    def __init__(self, h0: LocalHamiltonian | None, t: float, steps: int):
        self.h0 = h0   # None: compiled for its steps and charges, not to realize
        self.t, self.steps = t, steps

    @property
    def query_count(self) -> int:
        return 2 * self.steps

    @property
    def query_time(self) -> float:
        return self.t / (2 * self.steps)

    def realize(self, h_true: LocalHamiltonian) -> np.ndarray:
        """The dense V, as the literal Trotter product.

        Only `net_unitary`, and so `estimate_identity_sq`, builds it;
        `certifier.certify_block` takes Tr V from the step in H's eigenbasis
        instead.  Its rounding grows with the step count: at 1957 steps
        (the strict profile at eps 0.002, c_op 2), |Tr V / 2^n|^2 is 1e-12
        to 7e-12 off the same product of long-double factors (n = 2, 3, both
        arms of the instances `tasks.certifier_coeffs` draws), and the
        eigenbasis step path 0.4e-12 to 4e-12 off.
        """
        a = evolve(h_true, self.t / (2 * self.steps))
        b = evolve(self.h0, -self.t / self.steps)  # e^{+i t H0 / l}
        return np.linalg.matrix_power(a @ b @ a, self.steps)


def trotter_compile(h0: LocalHamiltonian, t: float, eps_trott: float,
                    op_norm_bound: float) -> TrotterFragment:
    """Build the fragment realizing exp(-i t (H - H0)) to operator-norm error
    eps_trott, for any H with operator norm at most op_norm_bound, with
    TROTTER_KAPPA steps per unit of sqrt((c t)^3 / eps_trott); a step count
    over TROTTER_STEP_BUDGET is a BudgetExceededError."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if eps_trott <= 0:
        raise ValueError(f"eps_trott must be positive, got {eps_trott}")
    c = max(op_norm_bound, 1e-12)
    try:
        steps = max(1, math.ceil(TROTTER_KAPPA * math.sqrt((c * t) ** 3 / eps_trott)))
    except OverflowError:   # (c t)^3 or the step count past the float range
        raise BudgetExceededError("fragment needs a step count past the float range, over "
                                  f"the budget {TROTTER_STEP_BUDGET}") from None
    if steps > TROTTER_STEP_BUDGET:
        raise BudgetExceededError(f"fragment needs {steps} steps, over the budget "
                                  f"{TROTTER_STEP_BUDGET}")
    return TrotterFragment(h0, t, steps)


def net_unitary(steps, h_true: LocalHamiltonian, n: int) -> np.ndarray:
    """Product of the steps' unitaries, first step rightmost."""
    u = np.eye(2**n, dtype=complex)
    for step in steps:
        u = step.realize(h_true) @ u
    return u


def charge_plan(steps, ledger: ExperimentLedger, repeat: int = 1) -> None:
    """Charge `repeat` experiments that each run `steps` once."""
    for step in steps:
        ledger.charge_queries(repeat * step.query_count, step.query_time)
    ledger.experiment_count += repeat
