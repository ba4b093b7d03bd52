"""Stacked sweep kernels against the literal per-trial references.

Records must be equal (==, not close) whatever the trial's n, the block of
trial indices it runs in, and the chunk that its n-group is cut into.
"""

import numpy as np
import pytest

import isingcert.oracle as oracle
import isingcert.tasks as tasks
from isingcert.gibbs import bound_diagnostics
from isingcert.hamiltonians import gibbs_density, random_hamiltonian

import sweep_reference as ref

BONAMI = {**tasks.TASKS["verify-bonami"].params, "n_min": 2, "n_max": 6, "l_min": 2}
BOUNDS = {**tasks.TASKS["verify-bounds"].params, "n_min": 2, "n_max": 6}

KERNELS = [
    pytest.param(tasks._bonami_block, ref.bonami_trial, BONAMI, id="bonami"),
    pytest.param(tasks._bounds_block, ref.bounds_trial, BOUNDS, id="bounds"),
    pytest.param(tasks._footnote_block, ref.footnote_trial, {**BOUNDS, "footnote_n": 4},
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


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_zero_trials_give_no_records(blocks):
    for block_fn in (tasks._bonami_block, tasks._bounds_block, tasks._footnote_block):
        assert _even_blocks(block_fn, BOUNDS | BONAMI, 1, 0, blocks) == []


@pytest.mark.parametrize("n", [2, 3, 5])
def test_pinsker_gap_equals_literal_chain(n):
    rng = np.random.default_rng(40 + n)
    h, h0 = random_hamiltonian(n, 2, rng), random_hamiltonian(n, 2, rng)
    rho, rho0 = gibbs_density(h, 0.8), gibbs_density(h0, 0.8)
    sup_coeff = max(abs(h.coeff(p) - h0.coeff(p)) for p in set(h.coeffs) | set(h0.coeffs))
    dh = h0.to_matrix() - h.to_matrix()
    [diag] = bound_diagnostics(rho[None], rho0[None], dh[None], [sup_coeff], [0.8], n, 2)
    assert diag == ref.pinsker_gap(rho, rho0, h, h0, 0.8)
