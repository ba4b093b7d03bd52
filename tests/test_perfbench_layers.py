"""The benchmark's traced run (perfbench/tracing.py) imports every module its
layer table names: a module that is gone crashes every traced run, while an
attribute that is gone is only reported as a missing layer.  So a module that
leaves src/ has to leave that table too.

The benchmark's Gibbs-task and sweep calls (perfbench/workloads.py, read
only) must write the same report files through the block drivers as through
the per-trial references."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import gibbs_reference
import sweep_reference
import isingcert.tasks as tasks
from isingcert.cli import main

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_GIBBS_TASKS = ("learn-gibbs", "certify-gibbs", "shadow-estimate")
_SWEEP_TASKS = ("verify-bonami", "verify-bounds")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_module_imports():
    tracing = _load("tracing")
    for module in sorted({module for _, module, *_ in tracing.LAYERS}):
        importlib.import_module(module)


def _files(tmp_path, name, call, seed):
    cfg, out_dir = tmp_path / f"{name}.json", tmp_path / name
    cfg.write_text(json.dumps(call.config(seed)))
    assert main(["--config", str(cfg), "--out", str(out_dir)]) == 0
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


def _assert_calls_equal_references(tmp_path, monkeypatch, seed, task_names, references):
    """Every call and warm-up of gibbs-sweeps running one of `task_names`
    writes the same files with the `references` patched into tasks.py."""
    workload = _load("workloads").WORKLOADS["gibbs-sweeps"]
    calls = [c for c in workload.calls + workload.warmup if c.task in task_names]
    assert {c.task for c in calls} == set(task_names)
    shipped = [_files(tmp_path, f"shipped{i}", c, seed) for i, c in enumerate(calls)]
    for name, reference in references.items():
        monkeypatch.setattr(tasks, name, reference)
    for i, call in enumerate(calls):
        assert _files(tmp_path, f"reference{i}", call, seed) == shipped[i], call.label


@pytest.mark.parametrize("seed", [1, 7])
def test_gibbs_benchmark_calls_equal_per_trial_references(tmp_path, monkeypatch, seed):
    _assert_calls_equal_references(tmp_path, monkeypatch, seed, _GIBBS_TASKS,
                                   gibbs_reference.DRIVERS)


@pytest.mark.parametrize("seed", [1, 7])
def test_sweep_benchmark_calls_equal_per_trial_references(tmp_path, monkeypatch, seed):
    _assert_calls_equal_references(tmp_path, monkeypatch, seed, _SWEEP_TASKS,
                                   sweep_reference.BLOCKS)
