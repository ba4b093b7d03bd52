"""Net-based learning and shadow-based certification of Gibbs states, plus
the trace-distance bound diagnostics both protocols lean on.

Both protocols see a state only through per-Pauli estimates: from
classical shadows (`shadows.estimate_paulis`, which the task drivers call)
or exact (`paulis.pauli_trace_inners`, for a known state).  Learning scans a
covering net of Gibbs states and returns the member whose exact observable
values best match the estimates; the pairwise max over net members reduces
to two single scans because the objective is linear in the member
coefficients (a unit test pins the reduction against the literal pairwise
maximum).  Certification compares per-string estimates of the two states
against a threshold proportional to eps^2 / (beta n^k).

Both protocols run a block of trials at once, one estimate row per trial:
learning scans the net and builds the learned members' Gibbs states as
stacks.  One trial is a block of one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .hamiltonians import HamiltonianNet, check_beta, gibbs_states
from .oracle import hermitian_eig, trace_distance
from .paulis import PauliString, check_size, enumerate_local_paulis, pauli_trace_inners
from .shadows import mom_batches, shadow_budget


class GibbsLearnConfig:
    """Parameters of the net learner and its derived accuracy targets.

    `eta` defaults to the nominal derivation, which is far beyond desk scale
    for most parameter choices (the learner is sample- but not
    time-efficient); an explicit value keeps the net enumerable while the
    protocol structure stays intact.  The caller picks the sample count;
    `nominal_budget` is the nominal one.
    """

    def __init__(self, n: int, k: int, beta: float, eps: float, delta: float,
                 support: tuple[PauliString, ...], eta: float | None = None):
        check_size(n, k)
        if not 0 < eps < 1 or not 0 < delta < 1:
            raise ValueError("eps and delta must be in (0, 1)")
        check_beta(beta)
        for p in support:
            if p.n != n:
                raise ValueError(f"support string {p} has {p.n} qubits, expected {n}")
            if p.weight > k:
                raise ValueError(f"support string {p} has weight > k")
        self.n, self.k, self.beta, self.eps, self.delta = n, k, beta, eps, delta
        self.support, self.eta = support, eta

    @property
    def beta_floor(self) -> float:
        return max(self.beta, 1.0)

    @property
    def eps_prime(self) -> float:
        """Net resolution target eps^2 / (100 max(beta,1) n^k)."""
        return self.eps**2 / (100.0 * self.beta_floor * self.n**self.k)

    @property
    def obs_accuracy(self) -> float:
        """Observable accuracy eps^2 / max(beta,1)."""
        return self.eps**2 / self.beta_floor

    @property
    def per_pauli_accuracy(self) -> float:
        return self.obs_accuracy / (200.0 * self.n**self.k)

    @property
    def eta_nominal(self) -> float:
        if self.beta == 0:
            return 1.0  # every member has the same Gibbs state
        return self.eps_prime / (200.0 * self.beta * self.n**self.k)

    @property
    def eta_used(self) -> float:
        return self.eta if self.eta is not None else self.eta_nominal

    @property
    def nominal_budget(self) -> int:
        return shadow_budget(self.n, self.k, self.per_pauli_accuracy, self.delta)

    @property
    def batches(self) -> int:
        """Median-of-means batches of the shadow estimates: collect with it."""
        return mom_batches(self.n, self.k, self.delta)


def scan_objective(net: HamiltonianNet, coeff_gaps: np.ndarray) -> np.ndarray | float:
    """max_{i,j} |sum_P ((h_i)_P - (h_j)_P) c_P| via the two-scan reduction.

    The maximand is g(i) - g(j) for the linear form g(i) = sum_P (h_i)_P c_P,
    so the pairwise max is max g - min g, and over the symmetric product grid
    each scan separates per coordinate into gmax |c_P|.  `coeff_gaps` holds
    the c_P on its last axis, e.g. one row per candidate member.
    """
    gmax = float(net.grid[-1])
    return 2.0 * gmax * np.sum(np.abs(coeff_gaps), axis=-1)


def learn_gibbs(estimates: np.ndarray, net: HamiltonianNet, beta: float,
                member_coeffs: np.ndarray) -> tuple[list[int], np.ndarray, list[float]]:
    """For each trial of a block, pick the net member whose Gibbs state at
    `beta` matches its estimates; returns the members' indices, their dense
    Gibbs states (B, 2^n, 2^n) and their objectives.

    `estimates` (B, |support|) holds each trial's estimates of Tr[P rho],
    aligned with `net.support`: from shadows, or exact.  For each member tau
    the objective is the pairwise-max deviation between the estimated and
    exact values of the net observables; ties resolve to the lowest member
    index.  `member_coeffs` is `net.gibbs_coeff_matrix(beta)`, which callers
    that learn many times on one net build once.
    """
    objectives = scan_objective(net, estimates[:, None, :] - member_coeffs)   # (B, members)
    index = np.argmin(objectives, axis=-1)
    states = gibbs_states(*hermitian_eig(net.matrices(net.values(index))), beta)
    return index.tolist(), states, objectives[np.arange(len(index)), index].tolist()


class GibbsCertConfig:
    """Thresholds of the Gibbs certification test; beta must be positive."""

    def __init__(self, n: int, k: int, beta: float, eps: float, delta: float):
        check_size(n, k)
        if not 0 < beta < math.inf:
            raise ValueError(f"beta must be positive and finite: the certification "
                             f"thresholds scale with 1/beta, got {beta}")
        if not 0 < eps < 1 or not 0 < delta < 1:
            raise ValueError("eps and delta must be in (0, 1)")
        self.n, self.k, self.beta, self.eps, self.delta = n, k, beta, eps, delta

    @property
    def per_pauli_accuracy(self) -> float:
        return self.eps**2 / (800.0 * self.beta * self.n**self.k)

    @property
    def far_threshold(self) -> float:
        return 3.0 * self.eps**2 / (400.0 * self.beta * self.n**self.k)

    @property
    def close_promise(self) -> float:
        return self.eps**2 / (400.0 * self.beta * self.n**self.k)

    @property
    def far_promise(self) -> float:
        return 2.0 * self.eps

    @property
    def nominal_budget(self) -> int:
        if self.per_pauli_accuracy >= 1:
            raise ValueError(f"beta={self.beta} puts the per-Pauli accuracy eps^2/(800 beta n^k) "
                             f"at {self.per_pauli_accuracy:.3g}, not below 1")
        return shadow_budget(self.n, self.k, self.per_pauli_accuracy, self.delta)

    @property
    def batches(self) -> int:
        """Median-of-means batches of the shadow estimates: collect with it."""
        return mom_batches(self.n, self.k, self.delta)


def certify_gibbs(estimates: np.ndarray, reference: np.ndarray,
                  far_threshold: float) -> list[tuple[str, float]]:
    """For each trial of a block: FAR iff some string separates its two
    estimate rows by at least `far_threshold`, 3 eps^2 / (400 beta n^k) for
    the weight <= k strings; returns per trial the verdict and the max gap.

    `estimates` and `reference` are (B, strings) arrays over the same
    strings: shadow estimates of the two states, or exact values of a known
    reference state.
    """
    max_gap = np.max(np.abs(estimates - reference), axis=-1).tolist()
    return [("FAR" if gap >= far_threshold else "CLOSE", gap) for gap in max_gap]


class BoundDiagnostics(NamedTuple):
    """The three trace-distance bounds with their slacks against the exact LHS."""

    lhs: float
    rhs_pinsker: float
    rhs_coeff_sup: float
    rhs_state_sup: float

    @property
    def slacks(self) -> tuple[float, float, float]:
        return (
            self.rhs_pinsker - self.lhs,
            self.rhs_coeff_sup - self.lhs,
            self.rhs_state_sup - self.lhs,
        )


def bound_diagnostics(rho: np.ndarray, rho0: np.ndarray, dh: np.ndarray, sup_coeff, beta,
                      n: int, k: int) -> list[BoundDiagnostics]:
    """Evaluate, with exact dense quantities, for every pair i of the stacks
    rho, rho0 (m, 2^n, 2^n) of Gibbs states of k-local H, H0 at beta[i],
    given dh = H0 - H and sup_coeff[i] = sup_P |h_P - h0_P|, the chain

    ||rho - rho0||_tr <= sqrt(2 beta Tr[(rho - rho0)(H0 - H)])
                      <= 200 beta n^k sup |h_P - h0_P|   (coefficient form)
    and, for |h_P|, |h0_P| <= 1,
                      <= sqrt(400 beta n^k sup |Tr[P rho] - Tr[P rho0]|).
    """
    lhs = trace_distance(rho, rho0)
    gap = np.trace((rho - rho0) @ dh, axis1=-2, axis2=-1).real.tolist()
    paulis = enumerate_local_paulis(n, k)
    sup_state = np.max(np.abs(pauli_trace_inners(paulis, rho).real
                              - pauli_trace_inners(paulis, rho0).real), axis=-1).tolist()
    return [
        BoundDiagnostics(
            lhs[i],
            math.sqrt(max(0.0, 2.0 * b * gap[i])),
            200.0 * b * n**k * sup_coeff[i],
            math.sqrt(400.0 * b * n**k * sup_state[i]),
        )
        for i, b in enumerate(beta)
    ]


def degenerate_regime(config: GibbsCertConfig) -> bool:
    """True when the close promise is at least the far promise.

    In that regime two admissible Gibbs states can never be 2 eps apart:
    the distance is at most 400 beta n^k <= eps/2.
    """
    return config.close_promise >= config.far_promise
