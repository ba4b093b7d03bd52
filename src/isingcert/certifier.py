"""Certification of a Hamiltonian against a known target from time-evolution
access: a bounded-promise subroutine plus the geometric iteration that removes
the promise.

The subroutine compiles V ~ exp(-i t (H - H0)), estimates |v_I|^2 with the
memoryless identity estimator, and declares FAR when the estimate falls at or
below a fixed threshold.  The estimator reads only |Tr V / 2^n|^2, so a run
takes Tr V of every level from Trotter steps written in H's eigenbasis, from
the two spectra, instead of building V.  `certify_block` runs a block of
trials as arrays: the schedule, whose step and experiment counts are the
same for every trial, compiles once, with its `CertConfig`, and each level
raises the steps of the trials that have not yet said FAR with one stacked
`matrix_power`.  It returns each trial's estimates of the levels it ran,
and `decide` of the last is the trial's verdict.  One subroutine call at
accuracy eps is a block on a config whose `levels` hold that one level.
Two profiles ship:

* "strict": the closed-form constants (threshold 1 - 23/(2400 e^6 C^2),
  accuracy 1/(4800 e^6 C^2), t = 1/(60 eps e^3 C)).  A level charges about
  3e14 experiments (2.6e14 at eps 0.05, 3.0e14 at eps 0.01), and its hit
  count is still one binomial draw, so a strict run costs what a calibrated
  one does.
* "calibrated": t = 1/(c_t eps) with a chosen threshold/accuracy pair (checked
  by acceptance criterion 06); the cheap profile, ~1e4 experiments a level.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import NamedTuple

import numpy as np

from . import constants as con
from .dynamics import TrotterFragment, trotter_compile
from .identity_estimator import drawn_estimate, sample_count

FAR = "FAR"
CLOSE = "CLOSE"


class CertProfile(NamedTuple):
    """Constants one subroutine call runs with; t(eps) = 1/(time_scale * eps)."""

    time_scale: float
    eps_trott: float
    est_accuracy: float
    far_threshold: float
    spam_budget: float

    def time_for(self, eps: float) -> float:
        return 1.0 / (self.time_scale * eps)


PROFILES = {
    "strict": CertProfile(con.STRICT_TIME_SCALE, con.TROTTER_ERROR_STRICT,
                          con.EST_ACCURACY_STRICT, con.FAR_THRESHOLD_STRICT,
                          con.SPAM_BUDGET_STRICT),
    "calibrated": CertProfile(con.CAL_TIME_SCALE, con.CAL_TROTTER_ERROR, con.CAL_EST_ACCURACY,
                              con.CAL_FAR_THRESHOLD, con.CAL_EST_ACCURACY / 3.0),
}


def strict_profile() -> CertProfile:
    return PROFILES["strict"]


def decide(estimate, far_threshold: float):
    """FAR iff the estimate is at or below the threshold; bit-exact, no slack.
    One estimate gives one verdict, an array of them a list of verdicts."""
    return np.where(np.less_equal(estimate, far_threshold), FAR, CLOSE).tolist()


class CompiledLevel(NamedTuple):
    """One schedule level, compiled: its fragment and its experiment count."""

    level: int
    eps: float
    delta: float
    fragment: TrotterFragment
    samples: int


class CertConfig:
    """One certification run, compiled: its accuracy, confidence, norm bounds
    and profile, and the geometric schedule eps_l = (15/12)^l eps that
    removes the promise, as `levels`, one CompiledLevel per level from l = L
    down to 0.  Step and experiment counts depend on the config alone, so
    one config serves every trial; its fragments carry no H0, and it builds
    no matrices.  A Trotter step count over TROTTER_STEP_BUDGET raises
    BudgetExceededError here, at any level."""

    def __init__(self, eps: float, delta: float, c_op: float = 1.0, c_frob: float = 1.0,
                 profile: str = "calibrated"):
        if not 0 < eps < c_frob:
            raise ValueError(f"eps must be in (0, C_frob={c_frob}), got {eps}")
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if not (1 <= c_op < math.inf and 1 <= c_frob < math.inf):
            raise ValueError(f"C_op and C_frob must be finite and >= 1, got {c_op} "
                             f"and {c_frob}")
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        self.eps, self.delta, self.c_op, self.c_frob = eps, delta, c_op, c_frob
        self.profile = prof = PROFILES[profile]
        ratio, arg = 15.0 / 12.0, 2.0 * c_frob / (15.0 * eps)
        if arg == math.inf:
            raise ValueError(f"eps={eps} is too small: 2 C_frob / (15 eps) overflows")
        big_l = max(0, math.ceil(math.log(arg) / math.log(ratio))) if arg > 1 else 0
        delta_l = delta / (big_l + 1)
        if delta_l == 0 or 2.0 / delta_l == math.inf:
            raise ValueError(f"delta={delta} is too small: split over {big_l + 1} levels, "
                             "ln(2 / delta_l) is not finite")
        self.levels = tuple(
            CompiledLevel(l, eps_l, delta_l,
                          trotter_compile(None, prof.time_for(eps_l), prof.eps_trott, c_op),
                          sample_count(prof.est_accuracy, delta_l))
            for l, eps_l in ((l, ratio**l * eps) for l in range(big_l, -1, -1)))

    def log_factor(self) -> float:
        """ln(2 (L+1) / delta), the per-level sample log factor."""
        return math.log(2.0 * len(self.levels) / self.delta)


def eigenbasis_identity_sq(m: np.ndarray, w0: np.ndarray, w: np.ndarray,
                           fragment: TrotterFragment) -> np.ndarray:
    """|Tr V / 2^n|^2 of `fragment`'s V = X^steps, one value per row.

    Row i is one pair: with H = W diag(w) W^dag and H0 = W0 diag(w0) W0^dag,
    m[i] = W^dag W0 (2^n, 2^n), and w0[i], w[i] are the two spectra.  With
    tau = t / (2 steps), the Trotter step in H's eigenbasis is
    X = D M diag(e^{2 i tau w0}) M^dag D with D = diag(e^{-i tau w}), and
    Tr V = Tr X^steps, so the rows are raised with one stacked `matrix_power`.
    """
    tau, dim = fragment.query_time, w.shape[-1]
    b = (m * np.exp(2j * tau * w0)[:, None, :]) @ np.swapaxes(m.conj(), -1, -2)
    d = np.exp(-1j * tau * w)
    x = np.linalg.matrix_power(d[:, :, None] * b * d[:, None, :], fragment.steps)
    # Python's abs and ** (libm pow), which numpy's x * x need not match
    return np.array([abs(t / dim) ** 2 for t in np.trace(x, axis1=-2, axis2=-1).tolist()])


def certify_block(spectra, config: CertConfig, rngs) -> list[list[float]]:
    """Certify a block of trials at each level of `config.levels` in order;
    a trial stops at its first FAR, and survives every level as CLOSE.  It
    returns, per trial, the clamped estimates of the levels it ran: its stop
    level is the last of them, and `decide` of its last estimate is its verdict.

    Run down the whole schedule, a trial's verdict is correct with
    probability >= 1 - delta under the promise gap
    (||H - H0||_F <= eps against >= 12 eps).  Without either promise, FAR
    still implies ||H - H0||_F >= eps, and CLOSE implies
    ||H - H0||_F <= 12 eps, each with probability >= 1 - delta.

    `spectra` is (w0, v0, w, v), each trial's eigenvalues (B, 2^n) and
    eigenvectors (B, 2^n, 2^n) of H0 and of H.  Trial i draws from rngs[i];
    it takes no ledger, and the driver charges the levels the trial ran.

    Each level takes `eigenbasis_identity_sq` of the trials still running
    only; its stacks are at most half the size of the spectra's, so a block
    sized within STACK_CHUNK_BYTES keeps them there.  The level's hit
    probabilities and clamped estimates are arrays over those trials, and
    the trials that `decide` calls CLOSE run on; a level that stops none of
    them keeps its arrays as they are.  Each trial makes one draw of its hit
    count, as `estimate_identity_sq` draws it.
    """
    w0, v0, w, v = spectra
    n = w.shape[-1].bit_length() - 1
    m = np.swapaxes(v.conj(), -1, -2) @ v0
    threshold = config.profile.far_threshold
    estimates = [[] for _ in rngs]
    running, rngs = list(range(len(rngs))), list(rngs)
    for lvl in config.levels:
        identity_sq = eigenbasis_identity_sq(m, w0, w, lvl.fragment)
        values, _ = drawn_estimate(identity_sq, n, lvl.samples, rngs)
        for i, value in zip(running, values.tolist()):
            estimates[i].append(value)
        close = np.equal(decide(values, threshold), CLOSE)   # the trials that run on
        if not close.any():
            break
        if not close.all():
            m, w0, w = m[close], w0[close], w[close]
            running, rngs = list(compress(running, close)), list(compress(rngs, close))
    return estimates


def evolution_time_bound(config: CertConfig) -> float:
    """Bound on a run's total evolution time.

    Strict: the schedule's full charge sum_l m_l t_l, which a run that
    reaches CLOSE spends.  Calibrated: the shipped c log(C_F / (eps delta)) / eps.
    """
    if config.profile == PROFILES["strict"]:
        return math.fsum(lvl.samples * lvl.fragment.t for lvl in config.levels)
    return (
        con.EVOLUTION_TIME_CONSTANT
        * math.log(config.c_frob / (config.eps * config.delta))
        / config.eps
    )
