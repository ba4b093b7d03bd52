"""Drivers of the five CLI tasks that work on states and spectra, with no
time evolution: the bound sweeps `verify-bonami` and `verify-bounds`, and
the Gibbs tasks `learn-gibbs`, `certify-gibbs` and `shadow-estimate`.

`tasks.run_task` imports this module the first time it dispatches to one of
them, so a `certify-dynamics` run never loads it, nor the Gibbs and shadow
modules it reads.  Seeding, the config boundary and dispatch are in tasks.py.

The sweeps run stacks of one n: one Pauli scatter, eig and Gibbs map each.
A Gibbs-task block builds its states with one scatter, eig and Gibbs map,
its Born tables with one contraction, and estimates all its trials' shadow
draws, stacked, with one `estimate_paulis` product; only the draws run per
trial, each on its trial's own generators.  Blocks are sized by
`oracle.stack_size` and stay within `oracle.STACK_CHUNK_BYTES`, histograms
included.  Cutting the trials into other blocks gives the same records.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import oracle
from .errors import PromiseViolationError
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
from .paulis import (PauliString, check_size, enumerate_local_paulis, local_pauli_count,
                     pauli_sum_matrix, pauli_trace_inners)
from .shadows import (born_table, collect_shadows, estimate_paulis, mom_batches,
                      resolve_samples, shadow_budget)
from .tasks import MAX_TRIALS, config_boundary, task_arm, trial_rngs

SLACK_TOL = -1e-9
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_sweep_sizes(params: dict) -> None:
    """Every n a sweep draws from [n_min, n_max] must be a valid size for k,
    and k must be >= 1: at k = 0 every instance is H = 0."""
    if params["n_min"] > params["n_max"]:
        raise ValueError(f"n_min={params['n_min']} exceeds n_max={params['n_max']}")
    check_size(params["n_min"], params["k"])
    check_size(params["n_max"], params["k"])
    if params["k"] < 1:
        raise ValueError(f"k must be >= 1, got {params['k']}: at k = 0 every instance is H = 0")


# ---------------------------------------------------------------- sweeps
# The kernels take `trials` as a range or list of trial indices, and return
# their records in that order.

def _sweep_stacks(k: int, seed: int, trials, key: tuple, draw, extra: int = 0):
    """Draw each trial t of `trials` from its generator of trial_rngs(seed,
    trials, *key) as draw(rng) -> (n, beta, r), then r coefficient vectors of
    random_hamiltonian's law.  Yield (n, indices, betas,
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
    with config_boundary():
        _check_sweep_sizes(params)
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
            records[t] = {"trial": t, "n": n, "beta": beta, **diag._asdict(),
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
    with config_boundary():
        _check_sweep_sizes(params)
        check_beta(params["beta_min"])
        check_beta(params["beta_max"])
        if params["beta_min"] > params["beta_max"]:
            raise ValueError(f"beta_min={params['beta_min']} exceeds "
                             f"beta_max={params['beta_max']}")
        # the state form's 400 beta n^k sup, with sup <= 2, is the chain's largest product
        if not math.isfinite(800.0 * params["beta_max"] * params["n_max"] ** params["k"]):
            raise ValueError(f"beta_max={params['beta_max']} takes the bound chain's "
                             f"800 beta n_max^k past the float range")
        check_size(params["footnote_n"], params["k"])
        if not 0 < params["footnote_eps"] < 1:
            raise ValueError(f"footnote_eps must be in (0, 1), got {params['footnote_eps']}")
        if not 0 <= params["footnote_pairs"] <= MAX_TRIALS:
            raise ValueError(f"footnote_pairs must be in [0, {MAX_TRIALS}], "
                             f"got {params['footnote_pairs']}")
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


# ---------------------------------------------------------------- Gibbs tasks
# A records function runs trials 0..trials-1 in blocks, and returns their
# records in trial order.  A block's states come from one scatter, eig and
# Gibbs map, its Born tables from one contraction, and its estimates from
# one `estimate_paulis` product; each trial draws its samples with
# `collect_shadows` from its own generator.

def _hist_bytes(n: int, batches: int, sets: int) -> int:
    """Bytes of a trial's batch histograms, as the estimator contracts them."""
    return 8 * sets * batches * 6**n


def _block_estimates(seed: int, block, tables, n: int, m: int, batches: int, key: int,
                     paulis) -> np.ndarray:
    """(B, strings) estimates of `paulis` from one shadow draw per trial of
    `block`, each drawn from its n-qubit Born table with its generator of
    trial_rngs(seed, block, key), stacked into one block."""
    draws = np.array([collect_shadows(table, m, rng, batches)
                      for table, rng in zip(tables, trial_rngs(seed, block, key))])
    return estimate_paulis(draws, n, batches, paulis)


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
        estimates = pauli_trace_inners(net.support, rho).real if exact else _block_estimates(
            seed, block, born_table(rho), config.n, m, config.batches, 1, net.support)
        index, learned, objective = learn_gibbs(estimates, net, config.beta, member_coeffs)
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
    with config_boundary():
        support = tuple(PauliString.from_label(s) for s in params["support"])
        config = GibbsLearnConfig(
            n=params["n"], k=params["k"], beta=params["beta"],
            eps=params["eps"], delta=params["delta"], support=support,
            eta=params.get("eta"),
        )
        net = HamiltonianNet(support, config.eta_used)
        nominal = config.nominal_budget   # every record reports it, exact ones too
        # exact estimates draw no samples, so no sample budget applies
        m = None if params.get("exact_estimates") else resolve_samples(
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
    of key (1,) and one shadow draw from key (2,), compared with itself.  Far
    arm: the two fixed states' draws from keys (2,) and (3,)."""
    n, batches = config.n, config.batches
    paulis = enumerate_local_paulis(n, config.k)
    results = []
    if far_tables is None:
        expected = "CLOSE"
        for _, block, _, _, h in _sweep_stacks(config.k, seed, range(trials), (1,),
                                               lambda rng: (n, None, 1),
                                               _hist_bytes(n, batches, 1)):
            tables = born_table(gibbs_states(*hermitian_eig(h[:, 0]), config.beta))
            estimates = _block_estimates(seed, block, tables, n, m, batches, 2, paulis)
            results += certify_gibbs(estimates, estimates, config.far_threshold)
    else:
        expected = "FAR"
        size = oracle.stack_size(n, 0, 0, _hist_bytes(n, batches, 2))   # no Hamiltonians
        for start in range(0, trials, size):
            block = range(start, min(start + size, trials))
            a, b = (_block_estimates(seed, block, [table] * len(block), n, m, batches, key,
                                     paulis)
                    for table, key in zip(far_tables, (2, 3)))
            results += certify_gibbs(a, b, config.far_threshold)
    return [{
        "trial": t,
        "verdict": verdict,
        "expected": expected,
        "correct": verdict == expected,
        "max_gap": max_gap,
        "far_threshold": config.far_threshold,
        "samples_used": m,
        "nominal_budget": config.nominal_budget,
    } for t, (verdict, max_gap) in enumerate(results)]


def task_certify_gibbs(params, trials, seed):
    arm = task_arm(params, ("equal", "far"))
    n, k, beta, eps = params["n"], params["k"], params["beta"], params["eps"]
    with config_boundary():
        config = GibbsCertConfig(n=n, k=k, beta=beta, eps=eps, delta=params["delta"])
        m = resolve_samples(params.get("samples"), config.nominal_budget, n, config.batches)
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
        estimates = _block_estimates(seed, block, born_table(rho), n, m, batches, 2, paulis)
        errors = np.abs(estimates - pauli_trace_inners(paulis, rho).real)
        records += [{
            "trial": t, "samples_used": m, "batches": batches,
            "max_abs_error": err, "all_within_eps": bool(err <= params["eps"]),
        } for t, err in zip(block, np.max(errors, axis=-1).tolist())]
    return records


def task_shadow_estimate(params, trials, seed):
    n, k = params["n"], params["k"]
    with config_boundary():
        check_beta(params["beta"])
        check_size(n, k)
        nominal = shadow_budget(n, k, params["eps"], params["delta"])   # checks eps and delta
        batches = mom_batches(n, k, params["delta"])
        m = resolve_samples(params.get("samples"), nominal, n, batches)
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
