"""Net-based learning and shadow-based certification of Gibbs states, plus
the trace-distance bound diagnostics both protocols lean on.

Learning scans a covering net of Gibbs states and returns the member whose
exact observable values best match the shadow estimates; the pairwise
max over net members reduces to two single scans because the objective is
linear in the member coefficients (a unit test pins the reduction against
the literal pairwise maximum).  Certification compares per-string shadow
estimates of the two states against a threshold proportional to
eps^2 / (beta n^k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import HamiltonianNet, check_beta, gibbs_density
from .oracle import trace_distance
from .paulis import PauliString, check_size, enumerate_local_paulis, pauli_trace_inners
from .shadows import ShadowData, batch_sizes, estimate_paulis, mom_batches, shadow_budget


@dataclass(frozen=True)
class GibbsLearnConfig:
    """Parameters of the net learner and its derived accuracy targets.

    `eta` defaults to the nominal derivation, which is far beyond desk scale
    for most parameter choices (the learner is sample- but not
    time-efficient); an explicit value keeps the net enumerable while the
    protocol structure stays intact.  The caller picks the sample count;
    `nominal_budget` is the nominal one.
    """

    n: int
    k: int
    beta: float
    eps: float
    delta: float
    support: tuple[PauliString, ...]
    eta: float | None = None

    def __post_init__(self):
        check_size(self.n, self.k)
        if not 0 < self.eps < 1 or not 0 < self.delta < 1:
            raise ValueError("eps and delta must be in (0, 1)")
        check_beta(self.beta)
        for p in self.support:
            if p.n != self.n:
                raise ValueError(f"support string {p} has {p.n} qubits, expected {self.n}")
            if p.weight > self.k:
                raise ValueError(f"support string {p} has weight > k")

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


def _check_split(samples: ShadowData, batches: int) -> None:
    """The samples must come in the config's median-of-means batches."""
    if not np.array_equal(samples.sizes, batch_sizes(len(samples), batches)):
        raise ValueError(f"samples come in {len(samples.sizes)} batches, "
                         f"the config estimates with {batches}")


def scan_objective(net: HamiltonianNet, coeff_gaps: np.ndarray) -> np.ndarray | float:
    """max_{i,j} |sum_P ((h_i)_P - (h_j)_P) c_P| via the two-scan reduction.

    The maximand is g(i) - g(j) for the linear form g(i) = sum_P (h_i)_P c_P,
    so the pairwise max is max g - min g, and over the symmetric product grid
    each scan separates per coordinate into gmax |c_P|.  `coeff_gaps` holds
    the c_P on its last axis, e.g. one row per candidate member.
    """
    gmax = float(net.grid[-1])
    return 2.0 * gmax * np.sum(np.abs(coeff_gaps), axis=-1)


def learn_gibbs(
    samples: ShadowData,
    net: HamiltonianNet,
    config: GibbsLearnConfig,
    estimates: np.ndarray | None = None,
    member_coeffs: np.ndarray | None = None,
) -> tuple[int, np.ndarray, float]:
    """Pick the net member whose Gibbs state matches the shadow estimates;
    returns its index, its dense Gibbs state and its objective.

    For each member tau the objective is the pairwise-max deviation between
    the estimated and exact values of the net observables; ties resolve to
    the lowest member index.  Passing `estimates` (values of Tr[P rho],
    aligned with `net.support`) bypasses the shadow post-processing, e.g. to
    substitute exact values.  `member_coeffs` is
    `net.gibbs_coeff_matrix(config.beta)`, computed here when not given;
    callers that learn many times on one net pass it in.  `samples` must be
    collected in `config.batches` batches; another split is a ValueError.
    """
    if estimates is None:
        _check_split(samples, config.batches)
        estimates = estimate_paulis(samples, net.support)
    if member_coeffs is None:
        member_coeffs = net.gibbs_coeff_matrix(config.beta)   # rows: Tr[P tau_i]
    objectives = scan_objective(net, estimates[None, :] - member_coeffs)
    index = int(np.argmin(objectives))
    return index, gibbs_density(net.member(index), config.beta), float(objectives[index])


@dataclass(frozen=True)
class GibbsCertConfig:
    """Thresholds of the Gibbs certification test; beta must be positive."""

    n: int
    k: int
    beta: float
    eps: float
    delta: float

    def __post_init__(self):
        check_size(self.n, self.k)
        if self.beta <= 0:
            raise ValueError(
                "beta must be positive: the certification thresholds scale with 1/beta"
            )
        if not 0 < self.eps < 1 or not 0 < self.delta < 1:
            raise ValueError("eps and delta must be in (0, 1)")

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
        return shadow_budget(self.n, self.k, self.per_pauli_accuracy, self.delta)

    @property
    def batches(self) -> int:
        """Median-of-means batches of the shadow estimates: collect with it."""
        return mom_batches(self.n, self.k, self.delta)


def certify_gibbs(
    samples_rho: ShadowData,
    rho0_or_samples,
    config: GibbsCertConfig,
) -> tuple[str, float, PauliString]:
    """FAR iff some weight <= k string separates the two estimate sets by at
    least 3 eps^2 / (400 beta n^k); returns the verdict, the max gap and the
    string attaining it (the lowest-code one among ties).

    `rho0_or_samples` is either a ShadowData of the second state or a dense
    density matrix, in which case its exact coefficients replace estimates.
    Sample sets must be collected in `config.batches` batches; another split
    is a ValueError.
    """
    paulis = enumerate_local_paulis(config.n, config.k)
    _check_split(samples_rho, config.batches)
    est_rho = estimate_paulis(samples_rho, paulis)
    if isinstance(rho0_or_samples, ShadowData):
        _check_split(rho0_or_samples, config.batches)
        est_rho0 = (est_rho if rho0_or_samples is samples_rho
                    else estimate_paulis(rho0_or_samples, paulis))
    else:
        est_rho0 = pauli_trace_inners(paulis, np.asarray(rho0_or_samples)).real
    gaps = np.abs(est_rho - est_rho0)
    witness = int(np.argmax(gaps))
    max_gap = float(gaps[witness])
    return ("FAR" if max_gap >= config.far_threshold else "CLOSE"), max_gap, paulis[witness]


@dataclass(frozen=True)
class BoundDiagnostics:
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
    gap = (rho - rho0) @ dh
    paulis = enumerate_local_paulis(n, k)
    sup_state = np.max(np.abs(pauli_trace_inners(paulis, rho).real
                              - pauli_trace_inners(paulis, rho0).real), axis=-1).tolist()
    return [
        BoundDiagnostics(
            lhs[i],
            math.sqrt(max(0.0, 2.0 * b * float(np.trace(gap[i]).real))),
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
