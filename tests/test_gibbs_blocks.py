"""The Gibbs tasks' block drivers against the literal per-trial references,
and the stacked kernels they run on against one-item calls.

Records and report files must be equal (==, byte for byte), whatever the
block size; the stacked Born tables and the block estimator must equal the
per-state and per-draw calls bit for bit.
"""

import json

import numpy as np
import pytest

import gibbs_reference as ref
import isingcert.gibbs as gibbs
import isingcert.oracle as oracle
import isingcert.state_tasks as state_tasks
import isingcert.tasks as tasks
from isingcert.cli import main
from isingcert.hamiltonians import gibbs_density, random_hamiltonian
from isingcert.paulis import enumerate_local_paulis
from isingcert.shadows import born_table, collect_shadows, estimate_paulis, mom_batches

# out of code order, so that the scatter must sort the terms
N3_SUPPORT = {"n": 3, "support": ["ZZI", "ZII", "IZI", "IIZ"], "eta": 0.5}
CASES = [
    pytest.param("certify-gibbs", {"arm": "equal", "samples": 3000}, id="cert-equal-n2"),
    pytest.param("certify-gibbs", {"arm": "far", "samples": 3000}, id="cert-far-n2"),
    pytest.param("certify-gibbs", {"n": 3, "arm": "equal", "samples": 3000}, id="cert-equal-n3"),
    pytest.param("certify-gibbs", {"n": 3, "arm": "far", "samples": 3000}, id="cert-far-n3"),
    pytest.param("certify-gibbs", {"n": 3, "arm": "far", "samples": None}, id="cert-far-nominal"),
    pytest.param("learn-gibbs", {"samples": 3000}, id="learn-n2"),
    pytest.param("learn-gibbs", {"samples": 3000, "on_grid": True}, id="learn-grid-n2"),
    pytest.param("learn-gibbs", {"exact_estimates": True}, id="learn-exact-n2"),
    pytest.param("learn-gibbs", {**N3_SUPPORT, "samples": 3000}, id="learn-n3"),
    pytest.param("learn-gibbs", {**N3_SUPPORT, "samples": 3000, "on_grid": True},
                 id="learn-grid-n3"),
    pytest.param("learn-gibbs", {**N3_SUPPORT, "exact_estimates": True}, id="learn-exact-n3"),
    pytest.param("shadow-estimate", {"samples": 3000}, id="shadow-n3"),
    # per-sample indices (batches 6^n > m): counted by np.bincount at n=4,
    # gathered per batch at n=5
    pytest.param("shadow-estimate", {"n": 4, "samples": 20000}, id="shadow-index-n4"),
    pytest.param("shadow-estimate", {"n": 5, "samples": 20000}, id="shadow-index-n5"),
]


def patch_reference(monkeypatch):
    for name, driver in ref.DRIVERS.items():
        monkeypatch.setattr(state_tasks, name, driver)


def report_files(tmp_path, name, task, params, trials=7, seed=5):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"schema_version": 1, "task": task, "seed": seed,
                               "trials": trials, "params": params}))
    out_dir = tmp_path / name
    assert main(["--config", str(cfg), "--out", str(out_dir)]) == 0
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


@pytest.mark.parametrize("task, params", CASES)
def test_block_drivers_equal_per_trial_references(task, params, monkeypatch):
    config = {"task": task, "seed": 3, "trials": 6, "params": params}
    shipped = tasks.run_task(config)
    patch_reference(monkeypatch)
    assert tasks.run_task(config) == shipped


@pytest.mark.parametrize("task, params", [
    pytest.param("certify-gibbs", {"arm": "equal", "samples": 2000}, id="cert-equal"),
    pytest.param("certify-gibbs", {"arm": "far", "samples": 2000}, id="cert-far"),
    pytest.param("learn-gibbs", {"samples": 2000, "on_grid": True}, id="learn-grid"),
    pytest.param("learn-gibbs", {"exact_estimates": True}, id="learn-exact"),
    pytest.param("shadow-estimate", {"samples": 2000}, id="shadow"),
])
def test_report_files_do_not_depend_on_the_block_size(tmp_path, monkeypatch, task, params):
    # blocks of 1 trial, of 3 (7 trials end in a partial block) and of all 7,
    # against the per-trial references
    runs = []
    for size in (1, 3, 7):
        monkeypatch.setattr(oracle, "stack_size", lambda *args, size=size: size)
        runs.append(report_files(tmp_path, f"block-{size}", task, params))
    monkeypatch.undo()
    patch_reference(monkeypatch)
    runs.append(report_files(tmp_path, "reference", task, params))
    assert len(runs[0]) == 2
    assert runs[0] == runs[1] == runs[2] == runs[3]


@pytest.mark.parametrize("task, params", [
    pytest.param("certify-gibbs", {"arm": "equal", "samples": 2000}, id="cert-equal"),
    pytest.param("certify-gibbs", {"arm": "far", "samples": 2000}, id="cert-far"),
    pytest.param("learn-gibbs", {"samples": 2000}, id="learn"),
    pytest.param("shadow-estimate", {"samples": 2000}, id="shadow"),
])
def test_blocks_stay_within_the_chunk_bytes(monkeypatch, task, params):
    # a chunk of 3 trials' histograms cuts 7 trials into blocks of 3, 3 and 1;
    # every stack of histograms, matrices and scan rows stays within it
    full = {**tasks.TASKS[task].params, **params}
    n, far = full["n"], full.get("arm") == "far"
    batches = mom_batches(n, full["k"], full["delta"])
    chunk = 3 * state_tasks._hist_bytes(n, batches, 2 if far else 1)
    if task == "learn-gibbs":
        chunk = 3 * 8 * 729 * 3   # the scan rows of the 729-member net are larger
    monkeypatch.setattr(oracle, "STACK_CHUNK_BYTES", chunk)
    blocks, estimate, eig = [], estimate_paulis, oracle.hermitian_eig

    def counted_estimate(samples, qubits, split, paulis):
        blocks.append(len(samples))
        assert state_tasks._hist_bytes(qubits, split, len(samples)) <= chunk
        return estimate(samples, qubits, split, paulis)

    def counted_eig(a):
        assert a.nbytes <= chunk
        return eig(a)

    for module in (state_tasks, gibbs):
        monkeypatch.setattr(module, "estimate_paulis", counted_estimate, raising=False)
        monkeypatch.setattr(module, "hermitian_eig", counted_eig, raising=False)
    tasks.run_task({"task": task, "seed": 2, "trials": 7, "params": params})
    assert blocks == ([3, 3, 3, 3, 1, 1] if far else [3, 3, 1])   # a far block has two sides


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_born_tables_equal_per_state_tables(n):
    rng = np.random.default_rng(20 + n)
    states = np.array([gibbs_density(random_hamiltonian(n, min(n, 2), rng), 0.9)
                       for _ in range(6)])
    tables = np.array([born_table(rho) for rho in states])
    for stack in (states, states[:1], states[:5]):
        np.testing.assert_array_equal(born_table(stack), tables[:len(stack)])
    np.testing.assert_array_equal(born_table(states.reshape(2, 3, 2**n, 2**n)),
                                  tables.reshape(2, 3, -1))


def test_stacked_born_tables_check_every_state():
    good = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError, match="unit trace"):
        born_table(np.array([good, 2 * good]))
    with pytest.raises(ValueError, match="PSD"):
        born_table(np.array([good, np.diag([1.5, -0.5]).astype(complex)]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("batches", [1, 4, 7])
def test_block_estimates_equal_per_set_estimates(n, batches):
    rng = np.random.default_rng(n * 10 + batches)
    paulis = enumerate_local_paulis(n, min(n, 2))
    table = born_table(gibbs_density(random_hamiltonian(n, min(n, 2), rng), 0.7))
    for m in (batches * 6**n, batches * 6**n - 1):   # batch histograms, then indices
        draws = np.array([collect_shadows(table, m, rng, batches) for _ in range(5)])
        assert draws.ndim == (3 if m == batches * 6**n else 2)
        expected = np.array([estimate_paulis(d[None], n, batches, paulis)[0] for d in draws])
        np.testing.assert_array_equal(estimate_paulis(draws, n, batches, paulis), expected)
        np.testing.assert_array_equal(estimate_paulis(draws[2:3], n, batches, paulis),
                                      expected[2:3])
    # a histogram block whose last axis is not 6^n is refused
    drawn = collect_shadows(table, batches * 6**n, rng, batches)
    for bad in (drawn[None, :, :-1], np.concatenate([drawn, drawn], axis=1)[None]):
        with pytest.raises(ValueError, match="histogram block"):
            estimate_paulis(bad, n, batches, paulis)


def test_block_estimates_need_one_split():
    # draws of two splits stack into no block, and a histogram block's batch
    # axis is its split
    rng = np.random.default_rng(1)
    table = born_table(np.eye(2, dtype=complex) / 2)
    sets = [collect_shadows(table, 500, rng, 5), collect_shadows(table, 500, rng, 4)]
    with pytest.raises(ValueError):
        np.array(sets)
    with pytest.raises(ValueError, match="histogram block"):
        estimate_paulis(sets[0][None], 1, 4, enumerate_local_paulis(1, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_rows_equal_their_blocks_of_one(n):
    # every row of a stacked block estimates as it does alone, in both forms;
    # histogram rows of different totals each divide by their own
    rng = np.random.default_rng(40 + n)
    paulis = enumerate_local_paulis(n, min(n, 3))
    probs = born_table(gibbs_density(random_hamiltonian(n, min(n, 2), rng), 0.6))
    batches, rows = 5, 6
    hist = rng.multinomial(rng.integers(1, 400, (rows, batches)), probs)
    assert len(np.unique(hist.sum(axis=-1))) > 1
    index = rng.choice(6**n, (rows, 997), p=probs).astype(np.min_scalar_type(6**n))
    for block in (hist, index):
        stacked = estimate_paulis(block, n, batches, paulis)
        for row, estimates in zip(block, stacked):
            np.testing.assert_array_equal(estimate_paulis(row[None], n, batches, paulis)[0],
                                          estimates)
    # a histogram row's estimate is the median of its batches' own means
    values = np.array([estimate_paulis(np.eye(6**n, dtype=int)[None, [j]], n, 1, paulis)[0]
                       for j in range(6**n)])   # each joint index's single-sample values
    means = (hist @ values) / hist.sum(axis=-1, keepdims=True)
    np.testing.assert_array_equal(estimate_paulis(hist, n, batches, paulis),
                                  np.median(means, axis=1))
