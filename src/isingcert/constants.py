"""Every shipped numerical constant, with its provenance.

Three families live here: closed-form constants of the certification
subroutine (evaluated once in double precision), chosen values, each with the
test that checks it, and guards.  The registry drives the
``constants-ledger`` CLI output; each constant used anywhere in the package
appears exactly once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Geometric series sum_{l>=0} e^{-2l} controlling the Taylor tail of the
# identity coefficient.
SERIES_TAIL_SUM = 1.0 / (1.0 - math.exp(-2.0))

_E6 = math.exp(6.0)
_C2 = SERIES_TAIL_SUM**2

# Subroutine constants, closed forms.
TROTTER_ERROR_STRICT = 1.0 / (19200.0 * _E6 * _C2)
EST_ACCURACY_STRICT = 1.0 / (4800.0 * _E6 * _C2)
FAR_THRESHOLD_STRICT = 1.0 - 23.0 / (2400.0 * _E6 * _C2)
SPAM_BUDGET_STRICT = 1.0 / (9600.0 * _E6 * _C2)

# The strict profile's evolution time is t = 1 / (STRICT_TIME_SCALE eps).
STRICT_TIME_SCALE = 60.0 * math.exp(3.0) * SERIES_TAIL_SUM


# Hoeffding constant in the identity-estimator sample count
# m = ceil(HOEFFDING_CONSTANT * ln(2/delta) / eps^2); the factor 8 absorbs the
# (1 + 2^-n) <= 2 rescaling of the debiased estimator range.
HOEFFDING_CONSTANT = 8.0

# Trotter step constant: l = ceil(TROTTER_KAPPA * sqrt((c t)^3 / eps)).
# Chosen on calibration.trotter_corpus (doubling from 1 until the
# operator-norm check passes at both tolerances; 1 passes with worst
# error/tolerance 0.18); acceptance criterion 03 re-runs that check.
TROTTER_KAPPA = 1.0

# Classical-shadow sample constant:
# m = ceil(SHADOW_SAMPLE_CONSTANT * 3^k k ln(100 n^k / delta) / eps^2).
# Chosen; acceptance criterion 07 checks simultaneous coverage at the
# nominal budget.
SHADOW_SAMPLE_CONSTANT = 4.0

# Median-of-means batch count: 2 * ceil(ln(2 * 100 n^k / delta)).
MOM_BATCH_CONSTANT = 2

# Calibrated certification profile: the strict constants above charge
# 2.6e14 (eps 0.05) to 3.0e14 (eps 0.01) experiments per subroutine call; the
# cheap profile, about 1e4 a call, uses t = 1 / (CAL_TIME_SCALE * eps) and the
# chosen threshold/accuracy pair below.  Acceptance criterion 06 checks an
# error rate <= 0.10 on both arms at eps 0.05 and 0.025.
CAL_TIME_SCALE = 15.0
CAL_FAR_THRESHOLD = 0.75
CAL_EST_ACCURACY = 0.07
CAL_TROTTER_ERROR = 5.0e-3

# Constant c in: total evolution time <= c * log(C_F/(eps delta)) / eps for
# the calibrated profile.  A CLOSE run spends its schedule's full charge, and
# charge * eps / log(C_F/(eps delta)) is at most 439 on test_certifier.py's
# grid (eps 0.1 to 0.002, delta 0.1 and 0.01), so 800 leaves 1.8x headroom.
EVOLUTION_TIME_CONSTANT = 800.0

# Enumeration guard for covering-net construction.
NET_ENUMERATION_BUDGET = 10**6

# Guard on Trotter step counts before compiling a fragment.
TROTTER_STEP_BUDGET = 10**7

# Cap on shadow sample counts resolved from nominal formulas without an
# explicit override, where the draw takes per-sample indices (batches 6^n > m).
SHADOW_SAMPLE_HARD_CAP = 10**7


class ConstantEntry(NamedTuple):
    name: str
    value: float
    formula: str
    provenance: str


REGISTRY = (
    ConstantEntry("series_tail_sum", SERIES_TAIL_SUM, "1/(1 - e^-2)",
                  "certification subroutine, closed form"),
    ConstantEntry("strict_time_scale", STRICT_TIME_SCALE, "60 e^3 C; t = 1/(c eps)",
                  "certification subroutine, closed form"),
    ConstantEntry("trotter_error_strict", TROTTER_ERROR_STRICT, "1/(19200 e^6 C^2)",
                  "certification subroutine, closed form"),
    ConstantEntry("est_accuracy_strict", EST_ACCURACY_STRICT, "1/(4800 e^6 C^2)",
                  "certification subroutine, closed form"),
    ConstantEntry("far_threshold_strict", FAR_THRESHOLD_STRICT, "1 - 23/(2400 e^6 C^2)",
                  "certification subroutine decision rule, closed form"),
    ConstantEntry("spam_budget_strict", SPAM_BUDGET_STRICT, "1/(9600 e^6 C^2)",
                  "certification subroutine SPAM allowance, closed form"),
    ConstantEntry("hoeffding_constant", HOEFFDING_CONSTANT, "8",
                  "identity estimator sample count (range-2 Hoeffding bound)"),
    ConstantEntry("trotter_kappa", TROTTER_KAPPA, "l = ceil(kappa sqrt((ct)^3/eps))",
                  "chosen on calibration.trotter_corpus; acceptance criterion 03"),
    ConstantEntry("shadow_sample_constant", SHADOW_SAMPLE_CONSTANT,
                  "m = ceil(c_s 3^k k ln(100 n^k/delta)/eps^2)",
                  "chosen; acceptance criterion 07 (coverage at the nominal budget)"),
    ConstantEntry("mom_batch_constant", MOM_BATCH_CONSTANT, "B = 2 ceil(ln(2*100 n^k/delta))",
                  "median-of-means construction"),
    ConstantEntry("cal_time_scale", CAL_TIME_SCALE, "t = 1/(c_t eps)",
                  "chosen; acceptance criterion 06 (error <= 0.10, both arms, eps 0.05, 0.025)"),
    ConstantEntry("cal_far_threshold", CAL_FAR_THRESHOLD, "decision threshold on |v_I|^2",
                  "chosen; acceptance criterion 06 (error <= 0.10, both arms, eps 0.05, 0.025)"),
    ConstantEntry("cal_est_accuracy", CAL_EST_ACCURACY, "identity-estimate accuracy",
                  "chosen; acceptance criterion 06 (error <= 0.10, both arms, eps 0.05, 0.025)"),
    ConstantEntry("cal_trotter_error", CAL_TROTTER_ERROR, "fragment compile tolerance",
                  "chosen; acceptance criterion 06 (error <= 0.10, both arms, eps 0.05, 0.025)"),
    ConstantEntry("evolution_time_constant", EVOLUTION_TIME_CONSTANT,
                  "total time <= c log(C_F/(eps delta)) / eps",
                  "schedule charge bound, 1.8x headroom; "
                  "test_certifier.py::test_evolution_time_constant_bounds_the_charge"),
    ConstantEntry("net_enumeration_budget", float(NET_ENUMERATION_BUDGET), "10^6",
                  "covering-net guard"),
    ConstantEntry("trotter_step_budget", float(TROTTER_STEP_BUDGET), "10^7",
                  "fragment compile guard"),
    ConstantEntry("shadow_sample_hard_cap", float(SHADOW_SAMPLE_HARD_CAP), "10^7",
                  "guard on nominal shadow budgets without an override"),
)


def constants_ledger() -> list[dict]:
    """Registry rows as plain dicts, ready for serialization."""
    return [e._asdict() for e in REGISTRY]
