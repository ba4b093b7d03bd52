"""Seeded, replayable drivers behind the CLI tasks.

Every trial draws from fresh generators in the state of
default_rng(SeedSequence(seed, spawn_key=(trial index, *key))), so a record
depends on its own trial index only, and reports list the records in trial
order.  `trial_rngs` seeds the generators of all trials of a key in bulk,
with those states, and each driver asks for them before its first trial.
All trials of a task run in one process: the `parallelism` config field is
validated and echoed in the report, and changes nothing else.  Every task
runs its trials in blocks, as arrays, and cutting the trials into other
blocks gives the same records.  The sweeps run stacks of one n: one Pauli
scatter, eig and Gibbs map each.  `certify-dynamics` blocks draw their
instances as coefficient rows, take their spectra from one scatter and eig,
and `certifier.certify_block` certifies the whole block.  A Gibbs-task
block builds its states with one scatter, eig and Gibbs map, its Born tables
with one contraction, and estimates all its sample sets with one
`estimate_paulis` product; only the draws run per trial, each on its
trial's own generators.  Blocks are sized by `oracle.stack_size`, the rule
the net's Gibbs table also reads, and stay within `oracle.STACK_CHUNK_BYTES`,
histograms included.  Each driver builds what every trial shares (configs,
the certification schedule, net and its Gibbs table, sample count, the far
arm's two states, from one scatter, eig and Gibbs map, and their Born
tables) once, before any trial runs; a ValueError raised there is a
ConfigError.  Promise checks run against the exact dense oracle and raise
PromiseViolationError when an instance falls outside its advertised regime,
before any trial of its block is certified.
"""

from __future__ import annotations

import functools
import math
import sys
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import calibration, oracle
from .certifier import (CertConfig, IterationSchedule, certify_block, compile_levels,
                        evolution_time_bound)
from .constants import SHADOW_SAMPLE_HARD_CAP, constants_ledger
from .dynamics import ExperimentLedger
from .errors import BudgetExceededError, ConfigError, PromiseViolationError
from .gibbs import (
    GibbsCertConfig,
    GibbsLearnConfig,
    bound_diagnostics,
    certify_gibbs,
    degenerate_regime,
    learn_gibbs,
)
from .hamiltonians import HamiltonianNet, check_beta, frobenius_norms, gibbs_states
from .oracle import hermitian_eig, hermitian_eigvals, spectral_moments, trace_distance
from .paulis import (LETTERS, PauliString, check_size, enumerate_local_paulis, local_pauli_count,
                     pauli_sum_matrix, pauli_trace_inners)
from .shadows import (batch_sizes, born_table, collect_shadows, estimate_paulis,
                      exact_batch_limit, mom_batches, shadow_budget)

SLACK_TOL = -1e-9
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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


@contextmanager
def _config_boundary():
    """A ValueError raised while a task builds its configs is a config error.
    Trials refuse what they cannot run with BudgetExceededError or
    PromiseViolationError, so a ValueError out of a trial is a fault."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _arm(params: dict, allowed: tuple[str, str]) -> str:
    if params["arm"] not in allowed:
        raise ConfigError(f"params.arm must be one of {list(allowed)}, got {params['arm']!r}")
    return params["arm"]


def _resolve_samples(requested, nominal: int, n: int, batches: int) -> int:
    """The sample count of each shadow draw: `requested`, or the nominal
    budget when it is None.  A draw of m samples costs O(batches 6^n) while it
    takes batch histograms (batches 6^n <= m) and O(m) once it takes
    per-sample indices, so a nominal budget is refused only in the second
    case and over SHADOW_SAMPLE_HARD_CAP.  Any count whose largest batch is
    over `exact_batch_limit` is refused too, before any trial draws."""
    if requested is not None and requested < 1:
        raise ConfigError(f"params.samples must be >= 1, got {requested}")
    m = nominal if requested is None else int(requested)
    sizes = batch_sizes(m, batches)
    if requested is None and len(sizes) * 6**n > m > SHADOW_SAMPLE_HARD_CAP:
        raise BudgetExceededError(
            f"nominal sample budget {m} needs per-sample indices (batches 6^n > m) above "
            f"the hard cap {SHADOW_SAMPLE_HARD_CAP}; set params.samples explicitly")
    if sizes[0] > exact_batch_limit(n):
        raise BudgetExceededError(
            f"a batch of {int(sizes[0])} samples on {n} qubits takes the shadow estimates' "
            "partial sums past 2^53, where floats stop being exact")
    return m


def _check_n_range(params: dict) -> None:
    """Every n a sweep draws from [n_min, n_max] must be a valid size for k."""
    if params["n_min"] > params["n_max"]:
        raise ValueError(f"n_min={params['n_min']} exceeds n_max={params['n_max']}")
    check_size(params["n_min"], params["k"])
    check_size(params["n_max"], params["k"])


# ---------------------------------------------------------------- sweeps
# The kernels take `trials` as a range or list of trial indices, and return
# their records in that order.

def _sweep_stacks(k: int, seed: int, trials, key: tuple, draw, extra: int = 0):
    """Draw each trial t of `trials` from its generator of trial_rngs(seed,
    trials, *key) as draw(rng) -> (n, beta, r), then r coefficient vectors of
    random_hamiltonian's "uniform" law.  Yield (n, indices, betas,
    c (m, r, terms), H (m, r, 2^n, 2^n)) per run of trials of one n, with the
    run's scatter weights, and `extra` bytes per trial, within
    STACK_CHUNK_BYTES."""
    groups, terms = {}, {}
    for t, rng in zip(trials, trial_rngs(seed, trials, *key)):
        n, beta, r = draw(rng)
        if n not in terms:
            terms[n] = local_pauli_count(n, k) - 1
        c = rng.uniform(-1.0, 1.0, (r, terms[n]))
        groups.setdefault(n, []).append((t, beta, c))
    for n, group in sorted(groups.items()):
        size = oracle.stack_size(n, *group[0][2].shape, extra)
        for start in range(0, len(group), size):
            indices, betas, c = zip(*group[start:start + size])
            c = np.array(c)
            yield n, indices, list(betas), c, pauli_sum_matrix(
                n, enumerate_local_paulis(n, k, include_identity=False), c)


def _bonami_block(params, seed, trials) -> list:
    """Records of `trials`, in order; a record's "rows" are its rows of the
    moments table, [trial, n, l, moment, bound, slack] for each order l."""
    k, ls = params["k"], list(range(params["l_min"], params["l_max"] + 1))
    scale = np.array([l ** (k / 2.0) for l in ls])   # Python float powers (libm pow)
    records = {}
    for n, indices, _, c, h in _sweep_stacks(k, seed, trials, (), lambda rng: (
            int(rng.integers(params["n_min"], params["n_max"] + 1)), None, 1)):
        moments = np.array(spectral_moments(hermitian_eigvals(h[:, 0]), ls))
        frob = frobenius_norms(c[:, 0])
        bound = frob[:, None] * scale
        slack = bound - moments
        for t, f, low, *columns in zip(indices, frob.tolist(), slack.min(axis=1).tolist(),
                                       moments.tolist(), bound.tolist(), slack.tolist()):
            # columns: the trial's moments, bounds and slacks, one per order l
            records[t] = {"trial": t, "n": n, "frobenius": f, "min_slack": low,
                          "rows": [[t, n, *entry] for entry in zip(ls, *columns)]}
    return [records[t] for t in trials]


def task_verify_bonami(params, trials, seed):
    with _config_boundary():
        _check_n_range(params)
        if params["k"] < 1:
            raise ValueError(f"k must be >= 1, got {params['k']}: at k = 0 every instance is H = 0")
        if not 2 <= params["l_min"] <= params["l_max"]:
            raise ValueError(f"need 2 <= l_min <= l_max, got l_min={params['l_min']}, "
                             f"l_max={params['l_max']}")
        # |lambda| <= T, the count of strings of weight <= k, so the sum that
        # np.mean takes over 2^n eigenvalues |lambda|^l stays below 2^n T^l
        t = local_pauli_count(params["n_max"], params["k"])
        if params["l_max"] >= (
                _LOG_FLOAT_MAX - params["n_max"] * math.log(2)) / math.log(t):
            raise ValueError(f"l_max={params['l_max']} lets 2^n_max T^l_max reach the float "
                             f"maximum, with T = {t} strings of weight <= k")
    records = _bonami_block(params, seed, range(trials))
    violations = sum(1 for r in records if r["min_slack"] < SLACK_TOL)
    payload = {
        "task": "verify-bonami",
        "violations": violations,
        "min_slack": min(r["min_slack"] for r in records),
        "trials": [{k: v for k, v in r.items() if k != "rows"} for r in records],
    }
    table = [row for r in records for row in r["rows"]]
    return payload, {"moments": (["trial", "n", "l", "moment", "bound", "slack"], table)}


def _bounds_block(params, seed, trials) -> list:
    k = params["k"]
    records = {}
    for n, indices, betas, c, h in _sweep_stacks(k, seed, trials, (), lambda rng: (
            int(rng.integers(params["n_min"], params["n_max"] + 1)),
            float(rng.uniform(params["beta_min"], params["beta_max"])), 2)):
        rho = gibbs_states(*hermitian_eig(h), np.array(betas)[:, None])
        sup_coeff = np.max(np.abs(c[:, 0] - c[:, 1]), axis=1, initial=0.0).tolist()
        diags = bound_diagnostics(rho[:, 0], rho[:, 1], h[:, 1] - h[:, 0], sup_coeff, betas, n, k)
        for t, beta, diag in zip(indices, betas, diags):
            # the fields lhs, rhs_pinsker, rhs_coeff_sup, rhs_state_sup, in order
            records[t] = {"trial": t, "n": n, "beta": beta, **vars(diag),
                          "min_slack": min(diag.slacks)}
    return [records[t] for t in trials]


def _footnote_block(params, seed, trials) -> list:
    n, k, eps = params["footnote_n"], params["k"], params["footnote_eps"]
    records = {}
    # regime eps^2/(400 beta n^k) >= 2 eps, i.e. beta <= eps / (800 n^k)
    for _, indices, betas, _, h in _sweep_stacks(k, seed, trials, (1,), lambda rng: (
            n, float(rng.uniform(0.1, 1.0)) * eps / (800.0 * n**k), 2)):
        rho = gibbs_states(*hermitian_eig(h), np.array(betas)[:, None])
        for t, beta, dist in zip(indices, betas, trace_distance(rho[:, 0], rho[:, 1])):
            cfg = GibbsCertConfig(n=n, k=k, beta=beta, eps=eps, delta=0.1)
            records[t] = {"trial": t, "beta": beta, "distance": dist, "bound": eps / 2.0,
                          "regime": degenerate_regime(cfg), "ok": bool(dist <= eps / 2.0)}
    return [records[t] for t in trials]


def task_verify_bounds(params, trials, seed):
    with _config_boundary():
        _check_n_range(params)
        check_beta(params["beta_min"])
        check_beta(params["beta_max"])
        if params["beta_min"] > params["beta_max"]:
            raise ValueError(f"beta_min={params['beta_min']} exceeds "
                             f"beta_max={params['beta_max']}")
        check_size(params["footnote_n"], params["k"])
        if not 0 < params["footnote_eps"] < 1:
            raise ValueError(f"footnote_eps must be in (0, 1), got {params['footnote_eps']}")
        if params["footnote_pairs"] < 0:
            raise ValueError(f"footnote_pairs must be >= 0, got {params['footnote_pairs']}")
    records = _bounds_block(params, seed, range(trials))
    foot = _footnote_block(params, seed, range(params["footnote_pairs"]))
    violations = sum(1 for r in records if r["min_slack"] < SLACK_TOL)
    foot_violations = sum(1 for r in foot if not (r["regime"] and r["ok"]))
    payload = {
        "task": "verify-bounds",
        "violations": violations,
        "footnote_violations": foot_violations,
        "min_slack": min(r["min_slack"] for r in records),
        "trials": records,
        "footnote_trials": foot,
    }
    table = [
        [r["trial"], r["n"], r["beta"], r["lhs"], r["rhs_pinsker"],
         r["rhs_coeff_sup"], r["rhs_state_sup"], r["min_slack"]]
        for r in records
    ]
    header = ["trial", "n", "beta", "lhs", "rhs_pinsker",
              "rhs_coeff_sup", "rhs_state_sup", "min_slack"]
    return payload, {"bounds": (header, table)}


# ---------------------------------------------------------------- dynamics

def _dynamics_blocks(params, seed, trials):
    """Yield (trial indices, ||H - H0||_F per trial, spectra) block by block,
    in trial order.  A block, sized like a sweep stack of two Hamiltonians
    per trial, draws its instances as coefficient rows and checks them whole,
    then takes the spectra (w0, v0, w, v) of its 2B Hamiltonians from one
    scatter and one stacked `hermitian_eig`."""
    n = params["n"]
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    size = oracle.stack_size(n, 2, len(paulis))
    for start in range(0, trials, size):
        block = range(start, min(start + size, trials))
        try:
            h0, h, delta = calibration.certifier_coeffs(
                trial_rngs(seed, block, 1), n, params["eps"],
                params["arm"] == "far", params["c_frob"])
        except calibration.InstanceError as exc:
            raise PromiseViolationError(f"trial {block[exc.row]}: {exc}") from exc
        # H0 and H of each trial side by side, as the rows of one stack
        w, v = oracle.hermitian_eig(pauli_sum_matrix(n, paulis, np.stack([h0, h], axis=1)
                                                     .reshape(-1, len(paulis))))
        yield block, delta.tolist(), (w[0::2], v[0::2], w[1::2], v[1::2])


def task_certify_dynamics(params, trials, seed):
    arm = _arm(params, ("close", "far"))
    with _config_boundary():
        check_size(params["n"], 2)   # certifier instances are 2-local
        config = CertConfig(eps=params["eps"], delta=params["delta"], c_op=params["c_op"],
                            c_frob=params["c_frob"], profile=params["profile"])
    gap = 12.0 * params["eps"] if arm == "far" else params["eps"]
    if gap >= params["c_frob"]:
        raise ConfigError(
            f"{arm} arm needs ||H - H0||_F = {gap} below c_frob = {params['c_frob']}"
        )
    schedule = IterationSchedule(params["eps"], params["delta"], params["c_frob"])
    levels = compile_levels(schedule.levels, config)   # a budget overrun exits before any draw
    expected = "FAR" if arm == "far" else "CLOSE"
    records = []
    for block, deltas, spectra in _dynamics_blocks(params, seed, trials):
        ledgers = [ExperimentLedger() for _ in block]
        results = certify_block(spectra, levels, config, list(trial_rngs(seed, block)), ledgers)
        records += [{
            "trial": t, "verdict": verdict, "expected": expected,
            "correct": verdict == expected, "delta_frobenius_oracle_only": delta,
            "ledger": ledger.snapshot(), "levels": levels_run,
        } for t, delta, ledger, (verdict, levels_run) in zip(block, deltas, ledgers, results)]
    errors = sum(1 for r in records if not r["correct"])
    total_time = [r["ledger"]["total_evolution_time"] for r in records]
    mean_time = float(np.mean(total_time))
    payload = {
        "task": "certify-dynamics",
        "arm": arm,
        "error_count": errors,
        "error_rate": errors / len(records),
        "mean_total_evolution_time": mean_time,
        "normalized_time": mean_time * params["eps"] / schedule.log_factor(),
        "time_bound": evolution_time_bound(config),
        "schedule_levels": schedule.big_l + 1,
        "trials": [{k: v for k, v in r.items() if k != "levels"} for r in records],
    }
    table = [
        [r["trial"], r["verdict"], r["expected"], int(r["correct"]),
         r["ledger"]["total_evolution_time"], r["ledger"]["query_count"],
         r["ledger"]["experiment_count"]]
        for r in records
    ]
    header = ["trial", "verdict", "expected", "correct",
              "total_evolution_time", "query_count", "experiment_count"]
    levels = [[r["trial"], *vars(level).values()] for r in records for level in r["levels"]]
    level_header = ["trial", "level", "eps", "delta", "estimate", "threshold", "verdict",
                    "samples", "trotter_steps"]   # LevelRecord's fields, in order
    return payload, {"verdicts": (header, table), "levels": (level_header, levels)}


# ---------------------------------------------------------------- Gibbs tasks
# A records function runs trials 0..trials-1 in blocks, and returns their
# records in trial order.  A block's states come from one scatter, eig and
# Gibbs map, its Born tables from one contraction, and its estimates from
# one `estimate_paulis` product; each trial draws its samples with
# `collect_shadows` from its own generator.

def _hist_bytes(n: int, batches: int, sets: int) -> int:
    """Bytes of a trial's batch histograms, as the estimator contracts them."""
    return 8 * sets * batches * 6**n


def _block_samples(seed: int, block, tables, m: int, batches: int, key: int) -> list:
    """One sample set per trial of `block`, each drawn from its Born table
    with its generator of trial_rngs(seed, block, key)."""
    return [collect_shadows(table, m, rng, batches)
            for table, rng in zip(tables, trial_rngs(seed, block, key))]


def _learn_records(params, config, net, member_coeffs, m, seed, trials) -> list:
    """Each trial draws its truth from its generator of key () and its
    samples from key (1,); `m` is None for exact estimates."""
    exact = m is None
    scan = 8 * net.size * len(net.support)   # a trial's (members, support) scan
    size = oracle.stack_size(config.n, 1, len(net.support),
                             max(scan, 0 if exact else _hist_bytes(config.n, config.batches, 1)))
    records = []
    for start in range(0, trials, size):
        block = range(start, min(start + size, trials))
        rngs = list(trial_rngs(seed, block))
        truth = [int(rng.integers(net.size)) for rng in rngs] if params.get("on_grid") else None
        values = net.values(truth) if truth is not None else np.array(
            [rng.uniform(-1.0, 1.0, len(net.support)) for rng in rngs])
        rho = gibbs_states(*hermitian_eig(net.matrices(values)), config.beta)
        samples = None if exact else _block_samples(seed, block, born_table(rho), m,
                                                    config.batches, 1)
        estimates = pauli_trace_inners(net.support, rho).real if exact else None
        index, learned, objective = learn_gibbs(samples, net, config, estimates, member_coeffs)
        for i, (t, dist) in enumerate(zip(block, trace_distance(learned, rho))):
            rec = {
                "trial": t,
                "index": index[i],
                "objective": objective[i],
                "distance_oracle_only": dist,
                "within_eps": bool(dist <= params["eps"]),
                "samples_used": 0 if exact else m,
                "nominal_budget": config.nominal_budget,
            }
            if truth is not None:
                rec["truth_index"] = truth[i]
                rec["recovered"] = index[i] == truth[i]
            records.append(rec)
    return records


def task_learn_gibbs(params, trials, seed):
    with _config_boundary():
        support = tuple(PauliString.from_label(s) for s in params["support"])
        config = GibbsLearnConfig(
            n=params["n"], k=params["k"], beta=params["beta"],
            eps=params["eps"], delta=params["delta"], support=support,
            eta=params.get("eta"),
        )
        net = HamiltonianNet(support, config.eta_used)
        nominal = config.nominal_budget   # every record reports it, exact ones too
        # exact estimates draw no samples, so no sample budget applies
        m = None if params.get("exact_estimates") else _resolve_samples(
            params.get("samples"), nominal, config.n, config.batches)
        member_coeffs = net.gibbs_coeff_matrix(config.beta)   # the same in every trial
    records = _learn_records(params, config, net, member_coeffs, m, seed, trials)
    success = sum(1 for r in records if r["within_eps"])
    payload = {
        "task": "learn-gibbs",
        "success_count": success,
        "success_rate": success / len(records),
        "trials": records,
    }
    if all("recovered" in r for r in records):
        payload["recovery_rate"] = sum(r["recovered"] for r in records) / len(records)
    header = ["trial", "index", "objective", "distance", "within_eps"]
    table = [[r["trial"], r["index"], r["objective"],
              r["distance_oracle_only"], int(r["within_eps"])] for r in records]
    return payload, {"learned": (header, table)}


def _gibbs_cert_records(config, m, far_tables, seed, trials) -> list:
    """Equal arm (`far_tables` None): each trial draws H from its generator
    of key (1,) and one sample set from key (2,), compared with itself.  Far
    arm: the two fixed states' sample sets from keys (2,) and (3,)."""
    n, batches = config.n, config.batches
    results = []
    if far_tables is None:
        expected = "CLOSE"
        for _, block, _, _, h in _sweep_stacks(config.k, seed, range(trials), (1,),
                                               lambda rng: (n, None, 1),
                                               _hist_bytes(n, batches, 1)):
            tables = born_table(gibbs_states(*hermitian_eig(h[:, 0]), config.beta))
            samples = _block_samples(seed, block, tables, m, batches, 2)
            results += certify_gibbs(samples, samples, config)
    else:
        expected = "FAR"
        size = oracle.stack_size(n, 0, 0, _hist_bytes(n, batches, 2))   # no Hamiltonians
        for start in range(0, trials, size):
            block = range(start, min(start + size, trials))
            # collect_shadows draws from a state or from its Born table alike
            a, b = (_block_samples(seed, block, [table] * len(block), m, batches, key)
                    for table, key in zip(far_tables, (2, 3)))
            results += certify_gibbs(a, b, config)
    return [{
        "trial": t,
        "verdict": verdict,
        "expected": expected,
        "correct": verdict == expected,
        "max_gap": max_gap,
        "far_threshold": config.far_threshold,
        "samples_used": m,
        "nominal_budget": config.nominal_budget,
    } for t, (verdict, max_gap, _) in enumerate(results)]


def task_certify_gibbs(params, trials, seed):
    arm = _arm(params, ("equal", "far"))
    n, k, beta, eps = params["n"], params["k"], params["beta"], params["eps"]
    with _config_boundary():
        config = GibbsCertConfig(n=n, k=k, beta=beta, eps=eps, delta=params["delta"])
        m = _resolve_samples(params.get("samples"), config.nominal_budget, n, config.batches)
    far_tables = None
    if arm == "far":
        # the Gibbs states of +-sum_i Z_i, as two coefficient rows of one stack
        z = [PauliString(n, 3 << 2 * i) for i in range(n)]
        far_states = gibbs_states(*hermitian_eig(pauli_sum_matrix(n, z, [[1.0] * n, [-1.0] * n])),
                                  beta)
        dist = trace_distance(*far_states)
        if dist < 2.0 * eps - 1e-9:
            raise PromiseViolationError(
                f"far-arm states are only {dist} apart, need >= {2 * eps}"
            )
        # the same two states in every trial: their Born tables are built once
        far_tables = tuple(born_table(rho) for rho in far_states)
    records = _gibbs_cert_records(config, m, far_tables, seed, trials)
    errors = sum(1 for r in records if not r["correct"])
    payload = {
        "task": "certify-gibbs",
        "arm": arm,
        "error_count": errors,
        "error_rate": errors / len(records),
        "trials": records,
    }
    header = ["trial", "verdict", "expected", "correct", "max_gap", "far_threshold"]
    table = [[r["trial"], r["verdict"], r["expected"], int(r["correct"]),
              r["max_gap"], r["far_threshold"]] for r in records]
    return payload, {"verdicts": (header, table)}


def _shadow_records(params, m, batches, paulis, seed, trials) -> list:
    """Each trial draws H from its generator of key (1,) and its samples
    from key (2,)."""
    n = params["n"]
    records = []
    for _, block, _, _, h in _sweep_stacks(params["k"], seed, range(trials), (1,),
                                           lambda rng: (n, None, 1), _hist_bytes(n, batches, 1)):
        rho = gibbs_states(*hermitian_eig(h[:, 0]), params["beta"])
        samples = _block_samples(seed, block, born_table(rho), m, batches, 2)
        errors = np.abs(estimate_paulis(samples, paulis) - pauli_trace_inners(paulis, rho).real)
        records += [{
            "trial": t, "samples_used": m, "batches": batches,
            "max_abs_error": err, "all_within_eps": bool(err <= params["eps"]),
        } for t, err in zip(block, np.max(errors, axis=-1).tolist())]
    return records


def task_shadow_estimate(params, trials, seed):
    n, k = params["n"], params["k"]
    with _config_boundary():
        check_beta(params["beta"])
        batches = mom_batches(n, k, params["delta"])
        m = _resolve_samples(params.get("samples"),
                             shadow_budget(n, k, params["eps"], params["delta"]), n, batches)
        paulis = enumerate_local_paulis(n, k)
    records = _shadow_records(params, m, batches, paulis, seed, trials)
    success = sum(1 for r in records if r["all_within_eps"])
    payload = {
        "task": "shadow-estimate",
        "success_count": success,
        "success_rate": success / len(records),
        "budget": m,
        "trials": records,
    }
    header = ["trial", "samples", "batches", "max_abs_error", "all_within_eps"]
    table = [[r["trial"], r["samples_used"], r["batches"],
              r["max_abs_error"], int(r["all_within_eps"])] for r in records]
    return payload, {"coverage": (header, table)}


# ---------------------------------------------------------------- dispatch

class Task(NamedTuple):
    """A CLI task: its driver (params, trials, seed) -> (payload, tables), its
    default trial count and default params, plus the params it reads only
    when given.  Each param is typed by its value here; its range is checked
    where the driver builds its configs."""

    driver: Callable
    trials: int
    params: dict
    optional: dict = {}


TASKS = {
    "certify-dynamics": Task(task_certify_dynamics, 50, {
        "n": 2, "eps": 0.05, "delta": 0.1, "arm": "close", "c_frob": 1.0,
        "c_op": 2.0, "profile": "calibrated",
    }),
    "learn-gibbs": Task(task_learn_gibbs, 20, {
        "n": 2, "k": 2, "beta": 1.0, "eps": 0.3, "delta": 0.1,
        "support": ["ZI", "IZ", "ZZ"], "eta": 0.25, "samples": 20000,
        "on_grid": False, "exact_estimates": False,
    }),
    "certify-gibbs": Task(task_certify_gibbs, 50, {
        "n": 2, "k": 2, "beta": 1.0, "eps": 0.3, "delta": 0.1,
        "arm": "equal", "samples": 20000,
    }),
    "verify-bonami": Task(task_verify_bonami, 1000, {
        "n_min": 2, "n_max": 5, "k": 2, "l_min": 3, "l_max": 8,
    }),
    "verify-bounds": Task(task_verify_bounds, 500, {
        "n_min": 2, "n_max": 3, "k": 2, "beta_min": 1e-3, "beta_max": 3.0,
        "footnote_pairs": 50, "footnote_eps": 0.3, "footnote_n": 2,
    }),
    "shadow-estimate": Task(task_shadow_estimate, 40, {
        "n": 3, "k": 2, "eps": 0.1, "delta": 0.05, "beta": 1.0,
    }, {"samples": 0}),
}
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
    payload, tables = spec.driver(params, trials, seed)
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
    out["params"] = params
    if "out" in raw:
        if not isinstance(raw["out"], str):
            raise ConfigError("out must be a string path")
        out["out"] = raw["out"]
    return out
