"""Memoryless estimation of |u_{I...I}|^2 from single queries to a unitary.

Protocol: repeat m = ceil(8 ln(2/delta) / eps^2) times -- draw a uniform
stabilizer state |phi>, run one experiment (prepare |phi>, query U once,
measure in the stabilizer basis of |phi>), and record whether the outcome was
phi itself.  Because the uniform stabilizer ensemble is a state 2-design,

    E[indicator] = (4^n |u_I|^2 + 2^n) / (2^n (2^n + 1)),

so (1 + 2^-n) * mean - 2^-n estimates |u_I|^2; it is clamped to [0, 1].
No ancillas, one query per experiment, nothing retained between experiments.

Experiments are independent and each draws a fresh state, so the hit count
is exactly Binomial(m, retain * E[indicator] + (1 - retain) / 2^n) under
depolarizing noise; the simulation makes that one draw.  The test suite keeps
the literal per-experiment loop as the reference it compares against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import HOEFFDING_CONSTANT
from .dynamics import NO_NOISE, NoiseModel, net_unitary
from .hamiltonians import LocalHamiltonian
from .oracle import identity_coeff


class IdentityCoeffEstimate(NamedTuple):
    value: float          # clamped to [0, 1]
    raw_value: float      # before clamping, in [-2^-n, 1 + 2^-n]
    samples_used: int
    eps: float
    delta: float


def sample_count(eps: float, delta: float) -> int:
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    count = HOEFFDING_CONSTANT * math.log(2.0 / delta) / eps**2
    if count == math.inf:
        raise ValueError(f"eps={eps} and delta={delta} put the sample count past the float range")
    return math.ceil(count)


def make_single_query_factory(steps, n: int) -> tuple:
    """The step tuple that every experiment of the estimator runs once.

    `estimate_identity_sq` takes the steps themselves; this is kept because
    the acceptance suite (tests/test_acceptance.py) builds its estimator
    input through it.  `n` is unused.
    """
    return tuple(steps)


def estimate_identity_sq(
    steps,
    h_true: LocalHamiltonian,
    n: int,
    eps: float,
    delta: float,
    rng,
    noise: NoiseModel = NO_NOISE,
) -> IdentityCoeffEstimate:
    """Run the memoryless protocol against the simulated access model.

    Every experiment runs the query steps `steps` once; `h_true` feeds their
    query slots.  The hit count is one draw from its exact Binomial law.  A
    caller that keeps a ledger charges the run as
    `charge_plan(steps, ledger, repeat=estimate.samples_used)`.
    """
    rng = np.random.default_rng(rng)
    m = sample_count(eps, delta)
    steps = tuple(steps)
    identity_sq = abs(identity_coeff(net_unitary(steps, h_true, n))) ** 2
    (value,), (raw,) = drawn_estimate(np.array([identity_sq]), n, m, [rng],
                                      noise.retain_factor(n, len(steps)))
    return IdentityCoeffEstimate(float(value), float(raw), m, eps, delta)


def drawn_estimate(identity_sq: np.ndarray, n: int, m: int, rngs,
                   retain: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(clamped, raw) estimates, one per row: rngs[i] draws the hit count of
    m experiments on a unitary with |u_I|^2 = identity_sq[i], where each
    experiment keeps the state with probability `retain` (module docstring:
    the count is exactly Binomial(m, p)).  Every step rounds as Python's
    float arithmetic does."""
    p = retain * design_expectation(identity_sq, n) + (1.0 - retain) / 2**n
    outside = ~((p >= -1e-12) & (p <= 1.0 + 1e-12))
    if outside.any():
        raise ValueError(f"hit probability {p[outside][0]} lies outside [0, 1]")
    hits = [rng.binomial(m, q) for rng, q in zip(rngs, np.clip(p, 0.0, 1.0).tolist())]
    raw = (1.0 + 2.0**-n) * (np.array(hits, dtype=np.int64) / m) - 2.0**-n
    return np.clip(raw, 0.0, 1.0), raw


def exact_indicator_expectation(u: np.ndarray, n: int) -> float:
    """Average of |<phi|U|phi>|^2 over every stabilizer state (n <= 2)."""
    from .stabilizers import stabilizer_state_matrix   # not loaded by a certify run

    mat = stabilizer_state_matrix(n)
    vals = np.abs(np.einsum("si,ij,sj->s", mat.conj(), u, mat)) ** 2
    return float(np.mean(vals))


def design_expectation(identity_sq: float, n: int) -> float:
    """2-design value (4^n |u_I|^2 + 2^n) / (2^n (2^n + 1)) of the indicator."""
    d = 2**n
    return (d * d * identity_sq + d) / (d * (d + 1))
