"""Literal per-trial references for the stacked sweep kernels in state_tasks.py.

One trial at a time: a LocalHamiltonian from random_hamiltonian, its own
to_matrix and eigendecomposition, its own Gibbs state, and the bound chain
evaluated on the pair's own dense matrices.  Each function returns the record
the CLI writes for that trial; the stacked kernels must return equal ones.
"""

import math

import numpy as np

from hamiltonian_reference import frobenius_norm
from isingcert.gibbs import BoundDiagnostics, GibbsCertConfig, degenerate_regime
from isingcert.hamiltonians import random_hamiltonian
from isingcert.paulis import enumerate_local_paulis, pauli_trace_inners
from rng_reference import trial_rng


def gibbs_density(h, beta):
    w, v = np.linalg.eigh(h.to_matrix())
    expw = np.exp(-beta * (w - w.min()))
    expw /= expw.sum()
    rho = (v * expw) @ v.conj().T
    return 0.5 * (rho + rho.conj().T)


def trace_distance(rho, sigma):
    w = np.linalg.eigvalsh(rho - sigma)
    return float(np.sum(np.abs(w)))


def pinsker_gap(rho, rho0, h, h0, beta):
    n = h.n
    k = max(h.k, h0.k)
    lhs = trace_distance(rho, rho0)
    inner = float(np.trace((rho - rho0) @ (h0.to_matrix() - h.to_matrix())).real)
    rhs_pinsker = math.sqrt(max(0.0, 2.0 * beta * inner))
    keys = set(h.coeffs) | set(h0.coeffs)
    sup_coeff = max((abs(h.coeffs.get(p, 0.0) - h0.coeffs.get(p, 0.0)) for p in keys), default=0.0)
    rhs_coeff = 200.0 * beta * n**k * sup_coeff
    paulis = enumerate_local_paulis(n, k)
    sup_state = float(np.max(np.abs(
        pauli_trace_inners(paulis, rho).real - pauli_trace_inners(paulis, rho0).real)))
    rhs_state = math.sqrt(400.0 * beta * n**k * sup_state)
    return BoundDiagnostics(lhs, rhs_pinsker, rhs_coeff, rhs_state)


def bonami_trial(params, seed, trial):
    rng = trial_rng(seed, trial)
    n = int(rng.integers(params["n_min"], params["n_max"] + 1))
    h = random_hamiltonian(n, params["k"], rng)
    frob = frobenius_norm(h)
    w = np.linalg.eigvalsh(h.to_matrix())
    rows = []
    min_slack = math.inf
    for l in range(params["l_min"], params["l_max"] + 1):
        moment = float(np.mean(np.abs(w) ** l) ** (1.0 / l))
        bound = l ** (params["k"] / 2.0) * frob
        slack = bound - moment
        min_slack = min(min_slack, slack)
        rows.append([trial, n, l, moment, bound, slack])
    return {"trial": trial, "n": n, "frobenius": frob,
            "min_slack": min_slack, "rows": rows}


def bounds_trial(params, seed, trial):
    rng = trial_rng(seed, trial)
    n = int(rng.integers(params["n_min"], params["n_max"] + 1))
    k = params["k"]
    beta = float(rng.uniform(params["beta_min"], params["beta_max"]))
    h = random_hamiltonian(n, k, rng)
    h0 = random_hamiltonian(n, k, rng)
    diag = pinsker_gap(gibbs_density(h, beta), gibbs_density(h0, beta), h, h0, beta)
    return {
        "trial": trial, "n": n, "beta": beta,
        "lhs": diag.lhs, "rhs_pinsker": diag.rhs_pinsker,
        "rhs_coeff_sup": diag.rhs_coeff_sup, "rhs_state_sup": diag.rhs_state_sup,
        "min_slack": min(diag.slacks),
    }


def footnote_trial(params, seed, trial):
    rng = trial_rng(seed, trial, 1)
    n, k, eps = params["footnote_n"], params["k"], params["footnote_eps"]
    beta = float(rng.uniform(0.1, 1.0)) * eps / (800.0 * n**k)
    h = random_hamiltonian(n, k, rng)
    h0 = random_hamiltonian(n, k, rng)
    dist = trace_distance(gibbs_density(h, beta), gibbs_density(h0, beta))
    cfg = GibbsCertConfig(n=n, k=k, beta=beta, eps=eps, delta=0.1)
    return {
        "trial": trial, "beta": beta, "distance": dist, "bound": eps / 2.0,
        "regime": degenerate_regime(cfg), "ok": bool(dist <= eps / 2.0),
    }


def _per_trial(trial_fn):
    def block(params, seed, trials):
        return [trial_fn(params, seed, t) for t in trials]
    return block


# the per-trial references in the place of the stacked kernels of state_tasks.py
BLOCKS = {"_bonami_block": _per_trial(bonami_trial), "_bounds_block": _per_trial(bounds_trial),
          "_footnote_block": _per_trial(footnote_trial)}
