"""Literal per-trial references for the block drivers of the Gibbs tasks.

One trial at a time: a LocalHamiltonian from its own generator, its own
eigendecomposition and Gibbs state, one `collect_shadows` call on that
state's own Born table, one estimate per draw (a block of one), and
the net scan or the certification test on that trial's estimates alone.
Each `*_records` function takes the arguments of its `state_tasks` counterpart and
returns the records the CLI writes; the block drivers must return equal ones.
"""

import numpy as np

from hamiltonian_reference import net_member
from isingcert.gibbs import scan_objective
from isingcert.hamiltonians import LocalHamiltonian, gibbs_density, random_hamiltonian
from isingcert.oracle import trace_distance
from isingcert.paulis import enumerate_local_paulis, pauli_trace_inners
from isingcert.shadows import born_table, collect_shadows, estimate_paulis
from rng_reference import trial_rng


def learn_one(estimates, net, config, member_coeffs):
    """The net scan of one trial: (member index, its Gibbs state, objective)."""
    objectives = scan_objective(net, estimates[None, :] - member_coeffs)
    index = int(np.argmin(objectives))
    return index, gibbs_density(net_member(net, index), config.beta), float(objectives[index])


def certify_one(est_rho, est_rho0, config):
    """The certification test of one trial on its two estimate vectors."""
    gaps = np.abs(est_rho - est_rho0)
    max_gap = float(gaps[int(np.argmax(gaps))])
    return ("FAR" if max_gap >= config.far_threshold else "CLOSE"), max_gap


def learn_trial(params, config, net, member_coeffs, m, seed, trial):
    rng = trial_rng(seed, trial)
    if params.get("on_grid"):
        truth_index = int(rng.integers(net.size))
        truth = net_member(net, truth_index)
    else:
        truth_index = None
        coeffs = {p: float(rng.uniform(-1.0, 1.0)) for p in net.support}
        truth = LocalHamiltonian(params["n"], params["k"], coeffs)
    rho = gibbs_density(truth, params["beta"])
    if m is None:
        estimates = pauli_trace_inners(net.support, rho).real
    else:
        samples = collect_shadows(born_table(rho), m, trial_rng(seed, trial, 1), config.batches)
        estimates = estimate_paulis(samples[None], config.n, config.batches, net.support)[0]
    index, learned, objective = learn_one(estimates, net, config, member_coeffs)
    dist = trace_distance(learned, rho)
    rec = {
        "trial": trial,
        "index": index,
        "objective": objective,
        "distance_oracle_only": dist,
        "within_eps": bool(dist <= params["eps"]),
        "samples_used": 0 if m is None else m,
        "nominal_budget": config.nominal_budget,
    }
    if truth_index is not None:
        rec["truth_index"] = truth_index
        rec["recovered"] = index == truth_index
    return rec


def learn_records(params, config, net, member_coeffs, m, seed, trials):
    return [learn_trial(params, config, net, member_coeffs, m, seed, t) for t in range(trials)]


def gibbs_cert_trial(config, m, far_tables, seed, trial):
    paulis = enumerate_local_paulis(config.n, config.k)
    if far_tables is None:
        h = random_hamiltonian(config.n, config.k, trial_rng(seed, trial, 1))
        rho = gibbs_density(h, config.beta)
        samples = collect_shadows(born_table(rho), m, trial_rng(seed, trial, 2), config.batches)
        est_a = est_b = estimate_paulis(samples[None], config.n, config.batches, paulis)[0]
        expected = "CLOSE"
    else:
        est_a, est_b = (
            estimate_paulis(collect_shadows(table, m, trial_rng(seed, trial, key),
                                            config.batches)[None], config.n, config.batches,
                            paulis)[0]
            for table, key in zip(far_tables, (2, 3)))
        expected = "FAR"
    verdict, max_gap = certify_one(est_a, est_b, config)
    return {
        "trial": trial,
        "verdict": verdict,
        "expected": expected,
        "correct": verdict == expected,
        "max_gap": max_gap,
        "far_threshold": config.far_threshold,
        "samples_used": m,
        "nominal_budget": config.nominal_budget,
    }


def gibbs_cert_records(config, m, far_tables, seed, trials):
    return [gibbs_cert_trial(config, m, far_tables, seed, t) for t in range(trials)]


def shadow_trial(params, m, batches, paulis, seed, trial):
    h = random_hamiltonian(params["n"], params["k"], trial_rng(seed, trial, 1))
    rho = gibbs_density(h, params["beta"])
    samples = collect_shadows(born_table(rho), m, trial_rng(seed, trial, 2), batches)
    est = estimate_paulis(samples[None], params["n"], batches, paulis)[0]
    max_err = float(np.max(np.abs(est - pauli_trace_inners(paulis, rho).real)))
    return {
        "trial": trial, "samples_used": m, "batches": batches,
        "max_abs_error": max_err, "all_within_eps": bool(max_err <= params["eps"]),
    }


def shadow_records(params, m, batches, paulis, seed, trials):
    return [shadow_trial(params, m, batches, paulis, seed, t) for t in range(trials)]


# the block driver in state_tasks that each reference replaces
DRIVERS = {"_learn_records": learn_records, "_gibbs_cert_records": gibbs_cert_records,
           "_shadow_records": shadow_records}
