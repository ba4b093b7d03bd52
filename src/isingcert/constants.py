"""The shipped constants of the protocols, each defined as its ledger row.

Three families live here: closed-form constants of the certification
subroutine (evaluated once in double precision), chosen values, each with the
test that checks it, and guards, ints that their messages print and that the
ledger holds as floats.  `_shipped` defines each one and appends its row to
the ledger that every report embeds and ``isingcert --constants`` prints.
Caps and tolerances of one module's own arithmetic stay beside their code,
outside the ledger: paulis.MAX_QUBITS, shadows.MAX_SHADOW_QUBITS,
tasks.MAX_TRIALS, oracle.STACK_CHUNK_BYTES, CLIP_TOL and HERMITIAN_TOL,
hamiltonians._COEFF_TOL, state_tasks.SLACK_TOL, shadows._PROB_SUM_TOL and the
calibrated profile's SPAM allowance CAL_EST_ACCURACY / 3 (certifier.PROFILES).
"""

import math

_LEDGER: list[dict] = []


def _shipped(name: str, value, formula: str, provenance: str):
    """Append one constant's ledger row and return its value."""
    _LEDGER.append({"name": name, "value": value, "formula": formula, "provenance": provenance})
    return value


# Geometric series sum_{l>=0} e^{-2l} controlling the Taylor tail of the
# identity coefficient.
SERIES_TAIL_SUM = _shipped("series_tail_sum", 1.0 / (1.0 - math.exp(-2.0)), "1/(1 - e^-2)",
                           "certification subroutine, closed form")

# The strict profile's evolution time is t = 1 / (STRICT_TIME_SCALE eps).
STRICT_TIME_SCALE = _shipped("strict_time_scale", 60.0 * math.exp(3.0) * SERIES_TAIL_SUM,
                             "60 e^3 C; t = 1/(c eps)", "certification subroutine, closed form")

_E6 = math.exp(6.0)
_C2 = SERIES_TAIL_SUM**2

# Subroutine constants, closed forms.
TROTTER_ERROR_STRICT = _shipped("trotter_error_strict", 1.0 / (19200.0 * _E6 * _C2),
                                "1/(19200 e^6 C^2)", "certification subroutine, closed form")
EST_ACCURACY_STRICT = _shipped("est_accuracy_strict", 1.0 / (4800.0 * _E6 * _C2),
                               "1/(4800 e^6 C^2)", "certification subroutine, closed form")
FAR_THRESHOLD_STRICT = _shipped("far_threshold_strict", 1.0 - 23.0 / (2400.0 * _E6 * _C2),
                                "1 - 23/(2400 e^6 C^2)",
                                "certification subroutine decision rule, closed form")
SPAM_BUDGET_STRICT = _shipped("spam_budget_strict", 1.0 / (9600.0 * _E6 * _C2),
                              "1/(9600 e^6 C^2)",
                              "certification subroutine SPAM allowance, closed form")


# Hoeffding constant in the identity-estimator sample count
# m = ceil(HOEFFDING_CONSTANT * ln(2/delta) / eps^2); the factor 8 absorbs the
# (1 + 2^-n) <= 2 rescaling of the debiased estimator range.
HOEFFDING_CONSTANT = _shipped("hoeffding_constant", 8.0, "8",
                              "identity estimator sample count (range-2 Hoeffding bound)")

# Trotter step constant: l = ceil(TROTTER_KAPPA * sqrt((c t)^3 / eps)).
# Chosen on calibration.trotter_corpus (doubling from 1 until the
# operator-norm check passes at both tolerances; 1 passes with worst
# error/tolerance 0.18); acceptance criterion 03 re-runs that check.
TROTTER_KAPPA = _shipped("trotter_kappa", 1.0, "l = ceil(kappa sqrt((ct)^3/eps))",
                         "chosen on calibration.trotter_corpus; acceptance criterion 03")

# Classical-shadow sample constant:
# m = ceil(SHADOW_SAMPLE_CONSTANT * 3^k k ln(100 n^k / delta) / eps^2).
# Chosen; acceptance criterion 07 checks simultaneous coverage at the
# nominal budget.
SHADOW_SAMPLE_CONSTANT = _shipped(
    "shadow_sample_constant", 4.0, "m = ceil(c_s 3^k k ln(100 n^k/delta)/eps^2)",
    "chosen; acceptance criterion 07 (coverage at the nominal budget)")

# Median-of-means batch count: 2 * ceil(ln(2 * 100 n^k / delta)).
MOM_BATCH_CONSTANT = _shipped("mom_batch_constant", 2, "B = 2 ceil(ln(2*100 n^k/delta))",
                              "median-of-means construction")

# Calibrated certification profile: the strict constants above charge
# 2.6e14 (eps 0.05) to 3.0e14 (eps 0.01) experiments per subroutine call; the
# cheap profile, about 1e4 a call, uses t = 1 / (CAL_TIME_SCALE * eps) and the
# chosen threshold/accuracy pair below.  Acceptance criterion 06 checks an
# error rate <= 0.10 on both arms at eps 0.05 and 0.025.
_CRITERION_06 = "chosen; acceptance criterion 06 (error <= 0.10, both arms, eps 0.05, 0.025)"
CAL_TIME_SCALE = _shipped("cal_time_scale", 15.0, "t = 1/(c_t eps)", _CRITERION_06)
CAL_FAR_THRESHOLD = _shipped("cal_far_threshold", 0.75, "decision threshold on |v_I|^2",
                             _CRITERION_06)
CAL_EST_ACCURACY = _shipped("cal_est_accuracy", 0.07, "identity-estimate accuracy",
                            _CRITERION_06)
CAL_TROTTER_ERROR = _shipped("cal_trotter_error", 5.0e-3, "fragment compile tolerance",
                             _CRITERION_06)

# Constant c in: total evolution time <= c * log(C_F/(eps delta)) / eps for
# the calibrated profile.  A CLOSE run spends its schedule's full charge, and
# charge * eps / log(C_F/(eps delta)) is at most 439 on test_certifier.py's
# grid (eps 0.1 to 0.002, delta 0.1 and 0.01), so 800 leaves 1.8x headroom.
EVOLUTION_TIME_CONSTANT = _shipped(
    "evolution_time_constant", 800.0, "total time <= c log(C_F/(eps delta)) / eps",
    "schedule charge bound, 1.8x headroom; "
    "test_certifier.py::test_evolution_time_constant_bounds_the_charge")

# Enumeration guard for covering-net construction.
NET_ENUMERATION_BUDGET = int(_shipped("net_enumeration_budget", float(10**6), "10^6",
                                      "covering-net guard"))

# Guard on Trotter step counts before compiling a fragment.
TROTTER_STEP_BUDGET = int(_shipped("trotter_step_budget", float(10**7), "10^7",
                                   "fragment compile guard"))

# Cap on shadow sample counts resolved from nominal formulas without an
# explicit override, where the draw takes per-sample indices (batches 6^n > m).
SHADOW_SAMPLE_HARD_CAP = int(_shipped("shadow_sample_hard_cap", float(10**7), "10^7",
                                      "guard on nominal shadow budgets without an override"))


def constants_ledger() -> list[dict]:
    """Copies of the ledger rows, in definition order, ready for serialization."""
    return [dict(row) for row in _LEDGER]
