"""Seeded, replayable dispatch behind the CLI tasks: the config schema and
its validation, the trial generators, and the `certify-dynamics` driver with
its instance draws.

Every trial draws from fresh generators in the state of
default_rng(SeedSequence(seed, spawn_key=(trial index, *key))), so a record
depends on its own trial index only, and reports list the records in trial
order.  `trial_rngs` seeds the generators of all trials of a key in bulk,
with those states, and each driver asks for them before its first trial.  All
trials of a task run in one process: the `parallelism` config field is
validated and echoed in the report, and changes nothing else.  Every task
runs its trials in blocks, as arrays, and cutting the trials into other
blocks gives the same records.  `certify-dynamics` blocks draw their
instances as coefficient rows, take their spectra from one scatter and eig,
and `certifier.certify_block` estimates the whole block.  A trial's verdict,
ledger and level rows follow from its estimates and the level where it
stopped: the driver charges the levels it ran, one snapshot serves every
trial with the same stop, and the fields a level's rows share are rendered
once per task.  The drivers of the other five tasks are in `state_tasks`,
which `run_task` imports the first time it dispatches to one of them, so a
`certify-dynamics` run never loads it, nor the Gibbs and shadow modules.
A driver is a generator: its config step, up to the yield that takes (trials,
seed), builds what every trial shares (configs, the net and its Gibbs table,
sample counts) once.  `run_task` makes a ValueError there a ConfigError, and
writes each report's `task` and `arm`; trials refuse with BudgetExceededError
or PromiseViolationError, so a ValueError out of one is a fault.
`certify-dynamics` refuses a config, and its arm's gap, only in its config
step: its `CertConfig` compiles the schedule, so a budget overrun exits there
too, and nothing runs between it and the first block.  `certifier_coeffs`
draws a block's instances at that gap and raises PromiseViolationError, naming
the trial by its index in the run, when one leaves its box or its gap, before
its block is certified.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import oracle
from .certifier import CLOSE, CertConfig, certify_block, decide, evolution_time_bound
from .constants import constants_ledger
from .dynamics import ExperimentLedger, charge_plan
from .errors import ConfigError, PromiseViolationError
from .hamiltonians import _COEFF_TOL, frobenius_norms
from .paulis import (LETTERS, MAX_QUBITS, enumerate_local_paulis, local_pauli_count,
                     pauli_sum_matrix)


# SeedSequence's hash constants (numpy.random.bit_generator)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """(2, count) uint32: the values before and after each of `count` hashmix
    calls of a hash constant that each call multiplies by `mult`."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32)


_GENERATE = _hash_consts(_INIT_B, _MULT_B, 8)   # generate_state's 8 words


def _hashmix(value, before, after):
    """SeedSequence's hashmix on uint32 arrays, elementwise."""
    value = (value ^ before) * after
    return value ^ value >> 16


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int, spawn_words: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 4-word pool of SeedSequence(seed, spawn_key=...) before its spawn
    words are mixed in, and the hash constants before and after the 4 hashmix
    calls of each spawn word, (spawn_words, 4) each; all read-only.

    A spawn key pads the seed's words with zeros to the pool size, and the
    pool's fill hashes zeros past the seed's words anyway, so that pool is
    SeedSequence(seed)'s, after 4 hashmix calls per (padded) seed word."""
    pool = np.random.SeedSequence(seed).pool.copy()
    seed_words = max(4, -(-max(seed.bit_length(), 1) // 32))
    before, after = _hash_consts(_INIT_A, _MULT_A, 4 * (seed_words + spawn_words))
    out = pool, before[4 * seed_words:].reshape(-1, 4), after[4 * seed_words:].reshape(-1, 4)
    for a in out:
        a.flags.writeable = False
    return out


def _seed_words(seed: int, trials, key: tuple) -> np.ndarray:
    """(len(trials), 4) uint64: the PCG64 seed words that
    SeedSequence(seed, spawn_key=(t, *key)).generate_state(4, np.uint64)
    gives for each trial t, computed for all trials at once."""
    spawn = np.empty((1 + len(key), len(trials)), dtype=np.int64)
    spawn[0], spawn[1:] = trials, np.reshape(key, (-1, 1))
    if spawn.size and not 0 <= spawn.min() <= spawn.max() <= 0xFFFFFFFF:
        raise ValueError("trial indices and keys must each fit one 32-bit spawn word")
    pool, before, after = _seed_pool(seed, len(spawn))
    for word, b, a in zip(spawn.astype(np.uint32)[:, :, None], before, after):
        pool = _mix(pool, _hashmix(word, b, a))   # (trials, 4)
    # generate_state cycles the pool through 8 words, read as 4 little-endian uint64
    return _hashmix(np.tile(pool, 2), *_GENERATE).view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Hands PCG64 its precomputed seed words.  PCG64 reads the raw buffer of
    what `generate_state` returns, so `row` must be C-contiguous uint64."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self.row


def trial_rngs(seed: int, trials, *key: int):
    """Iterator over one generator per trial t of `trials`, in order, each in
    the state of default_rng(SeedSequence(seed, spawn_key=(t, *key))).  The
    seed words of every trial come from one array pass; each generator is
    built as it is read, so a caller that drops it after its trial never
    holds them all."""
    return (np.random.Generator(np.random.PCG64(_SeedWords(row)))
            for row in _seed_words(seed, trials, key))


# ---------------------------------------------------------------- dynamics

def certifier_coeffs(rngs, trials, n: int, gap: float, c_frob: float):
    """(H0, H, ||H - H0||_F) of one instance per generator of `rngs`, the
    generators of the trials `trials` of a block: coefficient rows (B, T) over
    enumerate_local_paulis(n, 2, include_identity=False) and the B gap norms.
    ||H - H0||_F is `gap`, which the caller has checked is below c_frob, and
    both norms stay within c_frob.

    Each generator draws H0 and then a unit direction as uniform draws
    rescaled to a fixed normalized Frobenius norm, with the arithmetic of
    the test reference `random_fixed_norm` (tests/hamiltonian_reference.py),
    and H = H0 + gap * direction.
    The first row with a degenerate draw, with H0, the direction,
    gap * direction or H outside the box |h_P| <= 1, or with ||H - H0||_F
    more than 1e-9 off `gap`, raises PromiseViolationError naming its trial.
    """
    target = np.array([min(0.35 * c_frob, 0.9 * (c_frob - gap)), 1.0])
    terms = local_pauli_count(n, 2) - 1
    draws = np.array([rng.uniform(-1.0, 1.0, (2, terms))
                      for rng in map(np.random.default_rng, rngs)])   # (B, 2, T)
    norms = frobenius_norms(draws)   # the reference's sequential sum
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = draws * (target / norms)[..., None]
    h0, step = rows[:, 0], rows[:, 1] * gap
    h = h0 + step
    delta = np.linalg.norm(h - h0, axis=-1)
    peaks = np.abs(np.stack([h0, rows[:, 1], step, h], axis=1)).max(axis=-1)   # (B, 4)
    bad = np.column_stack([(norms == 0).any(axis=-1), peaks > 1.0 + _COEFF_TOL,
                           np.abs(delta - gap) > 1e-9])
    if bad.any():   # the first failing row, at its first failing check
        row = int(bad.any(axis=1).argmax())
        check = int(bad[row].argmax())
        if check == 0:
            message = "degenerate draw, cannot rescale"
        elif check < 5:
            part = ("H0", "the unit direction", "gap * direction", "H")[check - 1]
            message = (f"the instance drawn at c_frob = {c_frob} leaves the box |h_P| <= 1: "
                       f"{part} has |h_P| up to {peaks[row, check - 1]}")
        else:
            message = f"||H - H0||_F = {delta[row]} is more than 1e-9 off the gap {gap}"
        raise PromiseViolationError(f"trial {trials[row]}: {message}")
    return h0, h, delta


def _dynamics_blocks(n, gap, c_frob, seed, trials):
    """Yield (trial indices, ||H - H0||_F per trial, spectra) block by block,
    in trial order.  A block, sized like a sweep stack of two Hamiltonians
    per trial, draws its instances at `gap` as coefficient rows and checks
    them whole, then takes the spectra (w0, v0, w, v) of its 2B Hamiltonians
    from one scatter and one stacked `hermitian_eig`."""
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    size = oracle.stack_size(n, 2, len(paulis))
    for start in range(0, trials, size):
        block = range(start, min(start + size, trials))
        h0, h, delta = certifier_coeffs(trial_rngs(seed, block, 1), block, n, gap, c_frob)
        # H0 and H of each trial side by side, as the rows of one stack
        w, v = oracle.hermitian_eig(pauli_sum_matrix(n, paulis, np.stack([h0, h], axis=1)
                                                     .reshape(-1, len(paulis))))
        yield block, delta.tolist(), (w[0::2], v[0::2], w[1::2], v[1::2])


def task_certify_dynamics(params):
    if not 2 <= params["n"] <= MAX_QUBITS:
        raise ValueError(f"n={params['n']} out of range [2, {MAX_QUBITS}]: "
                         "certify-dynamics instances are 2-local")
    gap = 12.0 * params["eps"] if params["arm"] == "far" else params["eps"]
    if gap >= params["c_frob"]:
        raise ValueError(f"{params['arm']} arm needs ||H - H0||_F = {gap} below c_frob = "
                         f"{params['c_frob']}")
    config = CertConfig(eps=params["eps"], delta=params["delta"], c_op=params["c_op"],
                        c_frob=params["c_frob"], profile=params["profile"])
    trials, seed = yield
    threshold = config.profile.far_threshold
    expected = "FAR" if params["arm"] == "far" else "CLOSE"
    # every trial charges the same compiled levels, so the ledgers of two
    # trials that stop at the same level are equal: one snapshot per stop.  Each
    # trial still charges its own, as `perfbench/run.py --trace 1` sums the
    # `repeat` of these `charge_plan` calls against the reports' experiment counts
    snapshots = {}
    # the fields a level's rows share, as `reports.csv_text` writes them
    shared = [(str(lvl.level), str(lvl.eps), str(lvl.delta), str(threshold), str(lvl.samples),
               str(lvl.fragment.steps)) for lvl in config.levels]
    records, level_rows = [], []
    for block, deltas, spectra in _dynamics_blocks(params["n"], gap, params["c_frob"], seed,
                                                   trials):
        estimates = certify_block(spectra, config, list(trial_rngs(seed, block)))
        verdicts = decide([values[-1] for values in estimates], threshold)
        for t, delta, values, verdict in zip(block, deltas, estimates, verdicts):
            stop, ledger = len(values) - 1, ExperimentLedger()
            for lvl in config.levels[:stop + 1]:
                charge_plan((lvl.fragment,), ledger, repeat=lvl.samples)
            if stop not in snapshots:
                snapshots[stop] = ledger.snapshot()
            records.append({
                "trial": t, "verdict": verdict, "expected": expected,
                "correct": verdict == expected, "delta_frobenius_oracle_only": delta,
                "ledger": snapshots[stop],
            })
            level_rows += [[t, level, eps, delta_l, value, threshold_s, level_verdict, samples,
                            steps]
                           for (level, eps, delta_l, threshold_s, samples, steps), value,
                           level_verdict in zip(shared, values, [CLOSE] * stop + [verdict])]
    errors = sum(1 for r in records if not r["correct"])
    total_time = [r["ledger"]["total_evolution_time"] for r in records]
    mean_time = float(np.mean(total_time))
    payload = {
        "error_count": errors,
        "error_rate": errors / len(records),
        "mean_total_evolution_time": mean_time,
        "normalized_time": mean_time * params["eps"] / config.log_factor(),
        "time_bound": evolution_time_bound(config),
        "schedule_levels": len(config.levels),
        "trials": records,
    }
    table = [
        [r["trial"], r["verdict"], r["expected"], int(r["correct"]),
         r["ledger"]["total_evolution_time"], r["ledger"]["query_count"],
         r["ledger"]["experiment_count"]]
        for r in records
    ]
    header = ["trial", "verdict", "expected", "correct",
              "total_evolution_time", "query_count", "experiment_count"]
    level_header = ["trial", "level", "eps", "delta", "estimate", "threshold", "verdict",
                    "samples", "trotter_steps"]
    yield payload, {"verdicts": (header, table), "levels": (level_header, level_rows)}


# ---------------------------------------------------------------- dispatch

class Task(NamedTuple):
    """A CLI task: its driver, its default trial count and default params,
    the params it reads only when given, and its arms.  Each param is typed
    by its value here; its range is checked in the driver's config step."""

    driver: Callable
    trials: int
    params: dict
    optional: dict = {}
    arms: tuple = ()


def _state_task(name: str) -> Callable:
    """The driver `name` of `state_tasks`, which is imported at the driver's
    first call: a `certify-dynamics` run never loads it."""
    def driver(params):
        from . import state_tasks

        return getattr(state_tasks, name)(params)
    return driver


TASKS = {
    "certify-dynamics": Task(task_certify_dynamics, 50, {
        "n": 2, "eps": 0.05, "delta": 0.1, "arm": "close", "c_frob": 1.0,
        "c_op": 2.0, "profile": "calibrated",
    }, arms=("close", "far")),
    "learn-gibbs": Task(_state_task("task_learn_gibbs"), 20, {
        "n": 2, "k": 2, "beta": 1.0, "eps": 0.3, "delta": 0.1,
        "support": ["ZI", "IZ", "ZZ"], "eta": 0.25, "samples": 20000,
        "on_grid": False, "exact_estimates": False,
    }),
    "certify-gibbs": Task(_state_task("task_certify_gibbs"), 50, {
        "n": 2, "k": 2, "beta": 1.0, "eps": 0.3, "delta": 0.1,
        "arm": "equal", "samples": 20000,
    }, arms=("equal", "far")),
    "verify-bonami": Task(_state_task("task_verify_bonami"), 1000, {
        "n_min": 2, "n_max": 5, "k": 2, "l_min": 3, "l_max": 8,
    }),
    "verify-bounds": Task(_state_task("task_verify_bounds"), 500, {
        "n_min": 2, "n_max": 3, "k": 2, "beta_min": 1e-3, "beta_max": 3.0,
        "footnote_pairs": 50, "footnote_eps": 0.3, "footnote_n": 2,
    }),
    "shadow-estimate": Task(_state_task("task_shadow_estimate"), 40, {
        "n": 3, "k": 2, "eps": 0.1, "delta": 0.05, "beta": 1.0,
    }, {"samples": 0}),
}
# trial indices t < MAX_TRIALS each fit one 32-bit spawn word (`_seed_words`)
MAX_TRIALS = 2**32
# params whose null makes the task derive the value (nominal budget or eta)
NULLABLE_PARAMS = {"samples", "eta"}
# top-level keys of a schema-1 config; `parallelism` is checked and echoed only
CONFIG_KEYS = {"schema_version", "task", "seed", "trials", "parallelism", "params", "out"}


def run_task(config: dict) -> tuple[dict, dict]:
    """Execute a validated run configuration; returns (payload, csv tables)."""
    task = config["task"]
    spec = TASKS[task]
    params = {**spec.params, **config.get("params", {})}
    trials = config.get("trials") or spec.trials
    seed = config.get("seed", 0)
    driver = spec.driver(params)
    try:
        next(driver)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload, tables = driver.send((trials, seed))
    payload["task"] = task
    if spec.arms:
        payload["arm"] = params["arm"]
    payload["resolved_config"] = {
        "task": task, "seed": seed, "trials": trials,
        "parallelism": config.get("parallelism", 1), "params": params,
        "schema_version": 1,
    }
    payload["constants"] = constants_ledger()
    return payload, tables


def validate_config(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("schema_version") != 1:
        raise ConfigError(f"unsupported schema_version {raw.get('schema_version')!r}")
    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {', '.join(TASKS)}")
    out = {"schema_version": 1, "task": task}
    for key, default, minimum in (("seed", 0, 0), ("trials", None, 1), ("parallelism", 1, 1)):
        val = raw.get(key, default)
        if val is not None and (not isinstance(val, int) or isinstance(val, bool) or val < minimum):
            raise ConfigError(f"{key} must be an integer >= {minimum}, got {val!r}")
        out[key] = val
    if out["trials"] is not None and out["trials"] > MAX_TRIALS:
        raise ConfigError(f"trials must be at most {MAX_TRIALS}, got {out['trials']}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    spec = TASKS[task]
    schema = {**spec.params, **spec.optional}
    unknown = set(params) - set(schema)
    if unknown:
        raise ConfigError(f"unknown params for {task}: {sorted(unknown)}")
    n = params.get("n", schema.get("n"))
    for key, val in params.items():
        kind = type(schema[key])
        if val is None:
            ok = key in NULLABLE_PARAMS
        elif kind is list:  # Pauli words, one letter per qubit
            ok = isinstance(val, list) and all(
                isinstance(w, str) and len(w) == n and set(w) <= set(LETTERS) for w in val)
        else:
            ok = type(val) is kind or (kind is float and type(val) is int)
        if not ok:
            raise ConfigError(f"params.{key} must be like {schema[key]!r}, got {val!r}")
    if "arm" in params and params["arm"] not in spec.arms:
        raise ConfigError(f"params.arm must be one of {list(spec.arms)}, got {params['arm']!r}")
    out["params"] = params
    if "out" in raw:
        if not isinstance(raw["out"], str):
            raise ConfigError("out must be a string path")
        out["out"] = raw["out"]
    return out
