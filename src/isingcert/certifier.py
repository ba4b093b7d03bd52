"""Certification of a Hamiltonian against a known target from time-evolution
access: a bounded-promise subroutine plus the geometric iteration that removes
the promise.

The subroutine compiles V ~ exp(-i t (H - H0)), estimates |v_I|^2 with the
memoryless identity estimator, and declares FAR when the estimate falls at or
below a fixed threshold.  Two profiles ship:

* "strict": the closed-form constants (threshold 1 - 23/(2400 e^6 C^2),
  accuracy 1/(4800 e^6 C^2), t = 1/(60 eps e^3 C)).  The implied experiment
  count is ~1e13 per call, so sampled runs are refused; the profile is
  exercised with oracle-valued estimates plus bounded synthetic noise, and
  its decision rule is tested directly.
* "calibrated": t = 1/(c_t eps) with a threshold/accuracy pair fitted once on
  the in-repo corpus; this is the profile end-to-end sampled runs use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constants as con
from .dynamics import ExperimentLedger, charge_plan, trotter_compile
from .hamiltonians import LocalHamiltonian
from .identity_estimator import estimate_identity_sq, sample_count
from .oracle import identity_coeff

FAR = "FAR"
CLOSE = "CLOSE"


@dataclass(frozen=True)
class CertProfile:
    """Constants one subroutine call runs with; t(eps) = 1/(time_scale * eps)."""

    name: str
    time_scale: float
    eps_trott: float
    est_accuracy: float
    far_threshold: float
    spam_budget: float

    def time_for(self, eps: float) -> float:
        return 1.0 / (self.time_scale * eps)


def strict_profile() -> CertProfile:
    return CertProfile(
        name="strict",
        time_scale=60.0 * math.exp(3.0) * con.SERIES_TAIL_SUM,
        eps_trott=con.TROTTER_ERROR_STRICT,
        est_accuracy=con.EST_ACCURACY_STRICT,
        far_threshold=con.FAR_THRESHOLD_STRICT,
        spam_budget=con.SPAM_BUDGET_STRICT,
    )


def calibrated_profile() -> CertProfile:
    return CertProfile(
        name="calibrated",
        time_scale=con.CAL_TIME_SCALE,
        eps_trott=con.CAL_TROTTER_ERROR,
        est_accuracy=con.CAL_EST_ACCURACY,
        far_threshold=con.CAL_FAR_THRESHOLD,
        spam_budget=con.CAL_EST_ACCURACY / 3.0,
    )


PROFILES = {"strict": strict_profile, "calibrated": calibrated_profile}


def decide(estimate: float, far_threshold: float) -> str:
    """FAR iff the estimate is at or below the threshold; bit-exact, no slack."""
    return FAR if estimate <= far_threshold else CLOSE


@dataclass(frozen=True)
class CertConfig:
    eps: float
    delta: float
    c_op: float = 1.0
    c_frob: float = 1.0
    profile: str = "calibrated"
    estimator: str = "sampled"      # "sampled" or "oracle"
    synthetic_noise: float = 0.0    # oracle mode: uniform noise amplitude

    def __post_init__(self):
        if not 0 < self.eps < self.c_frob:
            raise ValueError(f"eps must be in (0, C_frob={self.c_frob}), got {self.eps}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.c_op < 1 or self.c_frob < 1:
            raise ValueError("C_op and C_frob must be >= 1")
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.estimator not in ("sampled", "oracle"):
            raise ValueError(f"unknown estimator mode {self.estimator!r}")
        if self.synthetic_noise < 0:
            raise ValueError(f"synthetic_noise must be >= 0, got {self.synthetic_noise}")
        if self.synthetic_noise and self.estimator == "sampled":
            raise ValueError("synthetic_noise applies only to the oracle estimator")


@dataclass(frozen=True)
class IterationSchedule:
    """Geometric relaxation eps_l = (15/12)^l eps, run from l = L down to 0."""

    eps: float
    delta: float
    c_frob: float
    levels: tuple = field(init=False)

    def __post_init__(self):
        ratio = 15.0 / 12.0
        arg = 2.0 * self.c_frob / (15.0 * self.eps)
        big_l = max(0, math.ceil(math.log(arg) / math.log(ratio))) if arg > 1 else 0
        delta_l = self.delta / (big_l + 1)
        levels = tuple(
            (l, ratio**l * self.eps, delta_l) for l in range(big_l, -1, -1)
        )
        object.__setattr__(self, "levels", levels)

    @property
    def big_l(self) -> int:
        return self.levels[0][0]

    def log_factor(self) -> float:
        """ln(2 (L+1) / delta), the per-level sample log factor."""
        return math.log(2.0 * (self.big_l + 1) / self.delta)


@dataclass
class LevelRecord:
    level: int
    eps: float
    delta: float
    estimate: float
    threshold: float
    verdict: str
    samples: int
    trotter_steps: int


@dataclass
class CertReport:
    verdict: str
    levels: list[LevelRecord]
    ledger: dict


def certify_subroutine(
    h0: LocalHamiltonian,
    h_true: LocalHamiltonian,
    eps: float,
    delta: float,
    config: CertConfig,
    rng,
    ledger: ExperimentLedger,
) -> tuple[str, LevelRecord]:
    """One bounded-promise certification call at accuracy eps.

    The guarantee binds when ||H - H0||_F <= 15 eps; the call runs either way
    and FAR / CLOSE then still imply >= eps / <= 12 eps respectively.
    """
    rng = np.random.default_rng(rng)
    profile = PROFILES[config.profile]()
    t = profile.time_for(eps)
    fragment = trotter_compile(h0, t, profile.eps_trott, config.c_op)
    if config.estimator == "sampled":
        est = estimate_identity_sq(
            (fragment,), h_true, h0.n, profile.est_accuracy, delta, rng, ledger,
            max_experiments=con.EXPERIMENT_BUDGET,
        )
        value = est.value
        samples = est.samples_used
    else:
        # oracle substitution: nominal sample count for the ledger, no
        # experiment budget applies since nothing is sampled
        samples = sample_count(profile.est_accuracy, delta)
        value = abs(identity_coeff(fragment.realize(h_true))) ** 2
        if config.synthetic_noise:
            value += rng.uniform(-config.synthetic_noise, config.synthetic_noise)
            value = min(1.0, max(0.0, value))
        # nominal protocol cost, so ledger totals stay meaningful
        charge_plan((fragment,), ledger, repeat=samples)
    verdict = decide(value, profile.far_threshold)
    record = LevelRecord(
        level=-1, eps=eps, delta=delta, estimate=value,
        threshold=profile.far_threshold, verdict=verdict,
        samples=samples, trotter_steps=fragment.steps,
    )
    return verdict, record


def certify(
    h0: LocalHamiltonian,
    h_true: LocalHamiltonian,
    config: CertConfig,
    rng,
) -> CertReport:
    """Full certification: iterate the subroutine down the schedule.

    Any FAR stops the run with FAR; surviving every level means CLOSE.  For
    the promise gap (<= eps vs >= 12 eps) the verdict is correct with
    probability >= 1 - delta.  Without either promise, FAR still implies
    ||H - H0||_F >= eps and CLOSE implies ||H - H0||_F <= 12 eps with
    probability >= 1 - delta.  Returns the verdict, the per-level records
    and the ledger snapshot.
    """
    rng = np.random.default_rng(rng)
    schedule = IterationSchedule(config.eps, config.delta, config.c_frob)
    ledger = ExperimentLedger()
    records = []
    verdict = CLOSE
    for level, eps_l, delta_l in schedule.levels:
        verdict, record = certify_subroutine(
            h0, h_true, eps_l, delta_l, config, rng, ledger
        )
        record.level = level
        records.append(record)
        if verdict == FAR:
            break
    return CertReport(verdict, records, ledger.snapshot())


def evolution_time_bound(config: CertConfig) -> float:
    """Shipped bound c log(C_F / (eps delta)) / eps on total evolution time."""
    return (
        con.EVOLUTION_TIME_CONSTANT
        * math.log(config.c_frob / (config.eps * config.delta))
        / config.eps
    )
