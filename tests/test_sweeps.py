"""Stacked sweep kernels against the literal per-trial references.

Records must be equal (==, not close) whatever the trial's n, the block of
trial indices it runs in, and the chunk that its n-group is cut into.  The
Bonami and bound-chain quantities are also checked for local-Clifford
invariance up to n = 8, where no literal reference runs.
"""

import numpy as np
import pytest

import isingcert.oracle as oracle
import isingcert.state_tasks as state_tasks
import isingcert.tasks as tasks
from isingcert.gibbs import bound_diagnostics
from isingcert.hamiltonians import (frobenius_norms, gibbs_density, gibbs_states,
                                   random_hamiltonian)
from isingcert.oracle import hermitian_eig, hermitian_eigvals, spectral_moments, trace_distance
from isingcert.paulis import enumerate_local_paulis, pauli_sum_matrix

import sweep_reference as ref
from pauli_reference import local_clifford_rows

BONAMI = {**tasks.TASKS["verify-bonami"].params, "n_min": 2, "n_max": 6, "l_min": 2}
BOUNDS = {**tasks.TASKS["verify-bounds"].params, "n_min": 2, "n_max": 6}

KERNELS = [
    pytest.param(state_tasks._bonami_block, ref.bonami_trial, BONAMI, id="bonami"),
    pytest.param(state_tasks._bounds_block, ref.bounds_trial, BOUNDS, id="bounds"),
    pytest.param(state_tasks._footnote_block, ref.footnote_trial, {**BOUNDS, "footnote_n": 4},
                 id="footnote"),
]


def _blocks(block_fn, params, seed, cuts):
    return [r for a, b in zip(cuts, cuts[1:]) for r in block_fn(params, seed, range(a, b))]


def _even_blocks(block_fn, params, seed, trials, blocks):
    """Records of trials 0..trials-1 from `blocks` contiguous blocks of near-equal size."""
    return _blocks(block_fn, params, seed, [trials * i // blocks for i in range(blocks + 1)])


@pytest.mark.parametrize("block_fn, trial_fn, params", KERNELS)
@pytest.mark.parametrize("seed", [7, 11])
def test_blocks_equal_literal_trials(block_fn, trial_fn, params, seed):
    expected = [trial_fn(params, seed, t) for t in range(14)]
    assert block_fn(params, seed, range(14)) == expected
    # blocks of size 1, then uneven blocks
    assert _blocks(block_fn, params, seed, list(range(15))) == expected
    assert _blocks(block_fn, params, seed, [0, 1, 4, 9, 14]) == expected


@pytest.mark.parametrize("block_fn, trial_fn, params", KERNELS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_blocks_at_each_n(block_fn, trial_fn, params, n):
    params = {**params, "n_min": n, "n_max": n, "footnote_n": n}
    expected = [trial_fn(params, 3, t) for t in range(4)]
    assert block_fn(params, 3, range(4)) == expected


@pytest.mark.parametrize("block_fn, trial_fn, params", KERNELS)
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_run_trials_equal_literal_trials(block_fn, trial_fn, params, blocks):
    params = {**params, "n_max": 4}
    expected = [trial_fn(params, 5, t) for t in range(11)]
    assert _even_blocks(block_fn, params, 5, 11, blocks) == expected


@pytest.mark.parametrize("block_fn, trial_fn, params", KERNELS)
def test_partial_last_chunk(block_fn, trial_fn, params, monkeypatch):
    # one n-group of 8 trials.  At n=3, k=2 a trial's scatter bins and
    # weights take 16 * 8 * 36 bytes per matrix, so a chunk holds 3 trials of
    # the bounds' two matrices and 6 of bonami's one: the last chunk is partial
    params = {**params, "n_min": 3, "n_max": 3, "footnote_n": 3}
    monkeypatch.setattr(oracle, "STACK_CHUNK_BYTES", 3 * 2 * 16 * 8 * 36)
    expected = [trial_fn(params, 9, t) for t in range(8)]
    assert block_fn(params, 9, range(8)) == expected
    # and sweep chunks of 3 trials, the last partial: no chunk seeds more
    seeded = []

    def counted_rngs(seed, trials, *key):
        seeded.append(len(trials))
        return tasks.trial_rngs(seed, trials, *key)

    monkeypatch.setattr(state_tasks, "SWEEP_CHUNK", 3)
    monkeypatch.setattr(state_tasks, "trial_rngs", counted_rngs)
    assert block_fn(params, 9, range(8)) == expected
    assert seeded == [3, 3, 2]


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_zero_trials_give_no_records(blocks):
    for block_fn in (state_tasks._bonami_block, state_tasks._bounds_block,
                     state_tasks._footnote_block):
        assert _even_blocks(block_fn, BOUNDS | BONAMI, 1, 0, blocks) == []


@pytest.mark.parametrize("n", [2, 3, 5])
def test_pinsker_gap_equals_literal_chain(n):
    rng = np.random.default_rng(40 + n)
    h, h0 = random_hamiltonian(n, 2, rng), random_hamiltonian(n, 2, rng)
    rho, rho0 = gibbs_density(h, 0.8), gibbs_density(h0, 0.8)
    sup_coeff = max(abs(h.coeffs.get(p, 0.0) - h0.coeffs.get(p, 0.0))
                    for p in set(h.coeffs) | set(h0.coeffs))
    dh = h0.to_matrix() - h.to_matrix()
    [diag] = bound_diagnostics(rho[None], rho0[None], dh[None], [sup_coeff], [0.8], n, 2)
    assert diag == ref.pinsker_gap(rho, rho0, h, h0, 0.8)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_bonami_moments_invariant_under_local_cliffords(n):
    # conjugating H by a local Clifford C keeps its spectrum, so every moment
    # (Tr |H|^l / 2^n)^(1/l) stays, and the signed permutation of the rows
    # keeps ||H||_F; at n = 2..8 the largest relative difference measured is
    # 3.6e-15 for the moments and 7.8e-16 for the norms
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    rng = np.random.default_rng((2300, n))
    rows = rng.uniform(-1.0, 1.0, (3, len(paulis)))   # the sweep's law
    images = np.concatenate([local_clifford_rows(row[None], n, rng) for row in rows])
    moments, image_moments = (
        np.array(spectral_moments(hermitian_eigvals(pauli_sum_matrix(n, paulis, c)), range(2, 9)))
        for c in (rows, images))
    assert image_moments == pytest.approx(moments, rel=1e-12, abs=0)
    assert frobenius_norms(images) == pytest.approx(frobenius_norms(rows), rel=1e-12, abs=0)
    # the l = 2 moment is ||H||_F (Parseval), which ties the norms to the matrices
    assert moments[:, 0] == pytest.approx(frobenius_norms(rows), rel=1e-12, abs=0)


def bound_chain(n, pairs, betas):
    """Gibbs trace distances and `bound_diagnostics` of (H0, H) coefficient
    pairs (m, 2, T) over the weight <= 2 strings, as `verify-bounds` takes them."""
    h = pauli_sum_matrix(n, enumerate_local_paulis(n, 2, include_identity=False), pairs)
    rho = gibbs_states(*hermitian_eig(h), np.array(betas)[:, None])
    sup_coeff = np.max(np.abs(pairs[:, 0] - pairs[:, 1]), axis=1).tolist()
    diags = bound_diagnostics(rho[:, 0], rho[:, 1], h[:, 1] - h[:, 0], sup_coeff, betas, n, 2)
    return np.array(trace_distance(rho[:, 0], rho[:, 1])), np.array(diags)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_bound_chain_invariant_under_local_cliffords(n):
    # conjugating H0 and H by one local Clifford C takes both Gibbs states to
    # C rho C^dag and keeps Tr[(rho - rho0)(H0 - H)], while the signed
    # permutation of the rows keeps sup |h_P - h0_P| and maps the weight <= 2
    # strings onto themselves, so the trace distance and every field of the
    # bound chain stay; at n = 2..8 the largest relative difference measured
    # is 2.2e-15, and the coefficient sup, a max over the same values, is equal
    rng = np.random.default_rng((2310, n))
    terms = len(enumerate_local_paulis(n, 2, include_identity=False))
    betas = rng.uniform(1e-3, 3.0, 3).tolist()   # the sweep's law at its default range
    pairs = rng.uniform(-1.0, 1.0, (3, 2, terms))
    images = np.array([local_clifford_rows(pair, n, rng) for pair in pairs])
    (dist, diags), (image_dist, image_diags) = (bound_chain(n, c, betas) for c in (pairs, images))
    assert image_dist == pytest.approx(dist, rel=1e-12, abs=0)
    assert image_diags == pytest.approx(diags, rel=1e-12, abs=0)
    assert (image_diags[:, 2] == diags[:, 2]).all() and (diags[:, 0] == dist).all()
