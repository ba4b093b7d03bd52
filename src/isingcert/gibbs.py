"""Net-based learning and shadow-based certification of Gibbs states, plus
the trace-distance bound diagnostics both protocols lean on.

Learning scans a covering net of Gibbs states and returns the member whose
exact observable values best match the shadow estimates; the pairwise
max over net members reduces to two single scans because the objective is
linear in the member coefficients (a unit test pins the reduction against
the literal pairwise maximum).  Certification compares per-string shadow
estimates of the two states against a threshold proportional to
eps^2 / (beta n^k).

Both protocols run a block of trials at once: the block's sample sets are
estimated in one `estimate_paulis` product, and learning scans the net and
builds the learned members' Gibbs states as stacks.  One trial is a block
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import HamiltonianNet, check_beta, gibbs_states
from .oracle import hermitian_eig, trace_distance
from .paulis import PauliString, check_size, enumerate_local_paulis, pauli_trace_inners
from .shadows import batch_sizes, estimate_paulis, mom_batches, shadow_budget


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


def _check_split(sets, batches: int) -> None:
    """Every sample set must come in the config's median-of-means batches."""
    for samples in sets:
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
    samples,
    net: HamiltonianNet,
    config: GibbsLearnConfig,
    estimates: np.ndarray | None = None,
    member_coeffs: np.ndarray | None = None,
) -> tuple[list[int], np.ndarray, list[float]]:
    """For each trial of a block, pick the net member whose Gibbs state
    matches its shadow estimates; returns the members' indices, their dense
    Gibbs states (B, 2^n, 2^n) and their objectives.

    `samples` holds one ShadowData per trial, collected in `config.batches`
    batches (another split is a ValueError), all estimated in one
    `estimate_paulis` product.  For each member tau the objective is the
    pairwise-max deviation between the estimated and exact values of the net
    observables; ties resolve to the lowest member index.  Passing
    `estimates` (B, |support|) of Tr[P rho], aligned with `net.support`,
    bypasses the shadow post-processing, e.g. to substitute exact values.
    `member_coeffs` is `net.gibbs_coeff_matrix(config.beta)`, computed here
    when not given; callers that learn many times on one net pass it in.
    """
    if estimates is None:
        _check_split(samples, config.batches)
        estimates = estimate_paulis(samples, net.support)
    if member_coeffs is None:
        member_coeffs = net.gibbs_coeff_matrix(config.beta)   # rows: Tr[P tau_i]
    objectives = scan_objective(net, estimates[:, None, :] - member_coeffs)   # (B, members)
    index = np.argmin(objectives, axis=-1)
    states = gibbs_states(*hermitian_eig(net.matrices(net.values(index))), config.beta)
    return index.tolist(), states, objectives[np.arange(len(index)), index].tolist()


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


def certify_gibbs(samples, reference,
                  config: GibbsCertConfig) -> list[tuple[str, float, PauliString]]:
    """For each trial of a block: FAR iff some weight <= k string separates
    its two estimate sets by at least 3 eps^2 / (400 beta n^k); returns per
    trial the verdict, the max gap and the string attaining it (the
    lowest-code one among ties).

    `samples` holds one ShadowData per trial.  `reference` is one of:
    - the same sequence object: each set against itself, estimated once;
    - one ShadowData per trial, of the second state;
    - dense density matrices (B, d, d), whose exact coefficients replace
      estimates.
    Each side's sets are estimated in one `estimate_paulis` product, and
    must be collected in `config.batches` batches; another split is a
    ValueError.
    """
    paulis = enumerate_local_paulis(config.n, config.k)
    dense = isinstance(reference, np.ndarray)
    sides = [samples] if dense or reference is samples else [samples, reference]
    for side in sides:
        _check_split(side, config.batches)
    est = [estimate_paulis(side, paulis) for side in sides]
    if dense:
        est.append(pauli_trace_inners(paulis, reference).real)
    gaps = np.abs(est[0] - est[-1])
    witness = np.argmax(gaps, axis=-1)
    max_gap = gaps[np.arange(len(gaps)), witness].tolist()
    return [("FAR" if gap >= config.far_threshold else "CLOSE", gap, paulis[w])
            for gap, w in zip(max_gap, witness.tolist())]


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
