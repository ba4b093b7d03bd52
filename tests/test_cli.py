import json
import subprocess
import sys

import pytest

from isingcert.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, EXIT_PROMISE, main
from isingcert.errors import ConfigError
from isingcert.tasks import validate_config


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_constants_ledger_flag(capsys):
    assert main(["--constants"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "far_threshold_strict" in out
    assert "trotter_kappa" in out
    # every constant appears exactly once
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert len(names) == len(set(names))


def test_missing_config_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_unreadable_config(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["--config", str(path)]) == EXIT_CONFIG


def test_schema_validation_errors(tmp_path):
    cases = [
        {"task": "verify-bonami"},                                   # no version
        {"schema_version": 1, "task": "unknown-task"},
        {"schema_version": 1, "task": "verify-bonami", "seed": -1},
        {"schema_version": 1, "task": "verify-bonami", "params": {"bogus": 1}},
        {"schema_version": 1, "task": "verify-bonami", "params": "x"},
    ]
    for i, raw in enumerate(cases):
        path = write_config(tmp_path, raw, f"c{i}.json")
        assert main(["--config", path]) == EXIT_CONFIG
    with pytest.raises(ConfigError):
        validate_config({"schema_version": 2, "task": "verify-bonami"})


def test_budget_overrun_exit_code(tmp_path):
    cfg = {
        "schema_version": 1, "task": "learn-gibbs", "trials": 1,
        "params": {"samples": None, "eta": 0.25},
    }
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_BUDGET


def test_strict_profile_flag_refused_at_desk_scale(tmp_path):
    cfg = {"schema_version": 1, "task": "certify-dynamics", "trials": 1,
           "params": {"arm": "close"}}
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path / "out"),
                 "--profile", "strict"]) == EXIT_BUDGET


def test_promise_violation_exit_code(tmp_path):
    # far arm needs states at least 2 eps apart; eps = 0.8 breaks that
    cfg = {
        "schema_version": 1, "task": "certify-gibbs", "trials": 1,
        "params": {"arm": "far", "eps": 0.8, "samples": 200},
    }
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_PROMISE


def test_far_arm_gap_beyond_c_frob_is_config_error(tmp_path, monkeypatch, capsys):
    # 12 eps = 1.08 >= c_frob = 1: no far-arm instance exists
    import isingcert.tasks as tasks

    def no_trials(*args):
        raise AssertionError("a trial ran before the config was rejected")

    monkeypatch.setattr(tasks, "_run_trials", no_trials)
    cfg = {"schema_version": 1, "task": "certify-dynamics", "trials": 2,
           "params": {"arm": "far", "n": 2, "eps": 0.09}}
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == EXIT_CONFIG
    assert "c_frob" in capsys.readouterr().err
    assert not out_dir.exists()


def test_successful_run_writes_report_and_tables(tmp_path, capsys):
    cfg = {
        "schema_version": 1, "task": "verify-bonami", "seed": 5, "trials": 10,
        "params": {"n_max": 3},
    }
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == EXIT_OK
    report = json.loads((out_dir / "verify-bonami.json").read_text())
    assert report["violations"] == 0
    assert report["resolved_config"]["seed"] == 5
    assert report["resolved_config"]["trials"] == 10
    assert any(c["name"] == "trotter_kappa" for c in report["constants"])
    csv_text = (out_dir / "verify-bonami_moments.csv").read_text()
    assert csv_text.startswith("trial,n,l,moment,bound,slack")


def test_cli_overrides_apply(tmp_path):
    cfg = {"schema_version": 1, "task": "verify-bonami", "seed": 1, "trials": 50,
           "params": {"n_max": 3}}
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir),
                 "--trials", "4", "--seed", "9"]) == EXIT_OK
    report = json.loads((out_dir / "verify-bonami.json").read_text())
    assert report["resolved_config"]["trials"] == 4
    assert report["resolved_config"]["seed"] == 9


def test_env_var_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ISINGCERT_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    cfg = {"schema_version": 1, "task": "verify-bonami", "trials": 3,
           "params": {"n_max": 2}}
    path = write_config(tmp_path, cfg)
    assert main(["--config", path]) == EXIT_OK
    assert (tmp_path / "envout" / "verify-bonami.json").exists()


def test_reports_byte_identical_across_runs(tmp_path):
    cfg = {"schema_version": 1, "task": "certify-dynamics", "seed": 21, "trials": 3,
           "params": {"arm": "close"}}
    path = write_config(tmp_path, cfg)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(["--config", path, "--out", str(a_dir)]) == EXIT_OK
    assert main(["--config", path, "--out", str(b_dir)]) == EXIT_OK
    a = (a_dir / "certify-dynamics_close.json").read_bytes()
    b = (b_dir / "certify-dynamics_close.json").read_bytes()
    assert a == b
    a_csv = (a_dir / "certify-dynamics_close_verdicts.csv").read_bytes()
    b_csv = (b_dir / "certify-dynamics_close_verdicts.csv").read_bytes()
    assert a_csv == b_csv


def test_parallel_records_match_serial(tmp_path):
    base = {"schema_version": 1, "task": "verify-bounds", "seed": 3, "trials": 6,
            "params": {"footnote_pairs": 4}}
    p_serial = write_config(tmp_path, {**base, "parallelism": 1}, "s.json")
    p_par = write_config(tmp_path, {**base, "parallelism": 2}, "p.json")
    assert main(["--config", p_serial, "--out", str(tmp_path / "s")]) == EXIT_OK
    assert main(["--config", p_par, "--out", str(tmp_path / "p")]) == EXIT_OK
    a = json.loads((tmp_path / "s" / "verify-bounds.json").read_text())
    b = json.loads((tmp_path / "p" / "verify-bounds.json").read_text())
    assert a["trials"] == b["trials"]
    assert a["footnote_trials"] == b["footnote_trials"]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_zero_footnote_pairs(tmp_path, parallelism):
    cfg = {"schema_version": 1, "task": "verify-bounds", "seed": 3, "trials": 3,
           "parallelism": parallelism, "params": {"footnote_pairs": 0}}
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "verify-bounds.json").read_text())
    assert report["footnote_trials"] == []
    assert report["footnote_violations"] == 0
    assert len(report["trials"]) == 3


def test_module_entry_point(tmp_path):
    cfg = {"schema_version": 1, "task": "verify-bonami", "trials": 2,
           "params": {"n_max": 2}}
    path = write_config(tmp_path, cfg)
    proc = subprocess.run(
        [sys.executable, "-m", "isingcert.cli", "--config", path,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "out" / "verify-bonami.json").exists()


def test_cli_import_skips_multiprocessing():
    # only fan-out needs a process pool; serial runs should not pay its import
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, isingcert.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_all_names_resolve():
    # a stale __all__ entry breaks `from isingcert import *`
    import isingcert

    missing = [name for name in isingcert.__all__ if not hasattr(isingcert, name)]
    assert not missing


def test_chunked_parallel_records_match_serial(tmp_path):
    # 19 trials at parallelism 2 go out in chunks of 3, the last one partial
    base = {"schema_version": 1, "task": "verify-bonami", "seed": 4, "trials": 19,
            "params": {"n_max": 3}}
    for name, par in (("s", 1), ("p", 2)):
        path = write_config(tmp_path, {**base, "parallelism": par}, f"{name}.json")
        assert main(["--config", path, "--out", str(tmp_path / name)]) == EXIT_OK
    a = json.loads((tmp_path / "s" / "verify-bonami.json").read_text())
    b = json.loads((tmp_path / "p" / "verify-bonami.json").read_text())
    assert [r["trial"] for r in b["trials"]] == list(range(19))
    assert a["trials"] == b["trials"]
    assert ((tmp_path / "s" / "verify-bonami_moments.csv").read_bytes()
            == (tmp_path / "p" / "verify-bonami_moments.csv").read_bytes())


def _override_is_rejected(tmp_path, monkeypatch, capsys, flag, value):
    import isingcert.tasks as tasks

    def no_trials(*args):
        raise AssertionError("a trial ran before the override was rejected")

    monkeypatch.setattr(tasks, "_run_trials", no_trials)
    cfg = {"schema_version": 1, "task": "verify-bonami", "trials": 3,
           "params": {"n_max": 2}}
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir), flag, value]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()


def test_trials_override_zero_is_config_error(tmp_path, monkeypatch, capsys):
    _override_is_rejected(tmp_path, monkeypatch, capsys, "--trials", "0")


def test_parallelism_override_zero_is_config_error(tmp_path, monkeypatch, capsys):
    _override_is_rejected(tmp_path, monkeypatch, capsys, "--parallelism", "0")


def test_negative_seed_override_is_config_error(tmp_path, monkeypatch, capsys):
    _override_is_rejected(tmp_path, monkeypatch, capsys, "--seed", "-3")


def _param_is_rejected(tmp_path, monkeypatch, capsys, task, params, name):
    import isingcert.tasks as tasks

    def no_trials(*args):
        raise AssertionError("a trial ran before the params were rejected")

    monkeypatch.setattr(tasks, "_run_trials", no_trials)
    path = write_config(tmp_path, {"schema_version": 1, "task": task, "trials": 1,
                                   "params": params})
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == EXIT_CONFIG
    assert f"config error: params.{name}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_support_with_unknown_letter_is_config_error(tmp_path, monkeypatch, capsys):
    _param_is_rejected(tmp_path, monkeypatch, capsys, "learn-gibbs", {"support": ["ZQ"]},
                       "support")


def test_string_for_integer_param_is_config_error(tmp_path, monkeypatch, capsys):
    _param_is_rejected(tmp_path, monkeypatch, capsys, "verify-bonami", {"n_max": "5"},
                       "n_max")


def test_param_the_task_ignores_is_config_error(tmp_path, monkeypatch, capsys):
    import isingcert.tasks as tasks

    monkeypatch.setattr(tasks, "_run_trials", None)
    path = write_config(tmp_path, {"schema_version": 1, "task": "certify-dynamics",
                                   "trials": 1, "params": {"eta": 0.25}})
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "unknown params for certify-dynamics: ['eta']" in capsys.readouterr().err


def _refused_before_any_trial(tmp_path, monkeypatch, capsys, task, params, flags=()):
    import isingcert.tasks as tasks

    def no_trials(*args):
        raise AssertionError("a trial ran before the config was rejected")

    monkeypatch.setattr(tasks, "_run_trials", no_trials)
    path = write_config(tmp_path, {"schema_version": 1, "task": task, "trials": 2,
                                   "params": params})
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir), *flags]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("task, params", [
    pytest.param("learn-gibbs", {"eps": 2.0}, id="learn-eps"),
    pytest.param("learn-gibbs", {"n": 2, "k": 1, "support": ["ZI", "ZZ"]},
                 id="learn-support-weight"),
    pytest.param("learn-gibbs", {"samples": 0}, id="learn-samples"),
    pytest.param("learn-gibbs", {"eta": -0.5}, id="learn-eta"),
    pytest.param("certify-dynamics", {"eps": -1}, id="dynamics-eps"),
    pytest.param("certify-dynamics", {"arm": "nope"}, id="dynamics-arm"),
    pytest.param("certify-dynamics", {"profile": "nope"}, id="dynamics-profile"),
    pytest.param("certify-gibbs", {"beta": 0.0}, id="gibbs-beta"),
    pytest.param("certify-gibbs", {"samples": -5}, id="gibbs-samples"),
    pytest.param("shadow-estimate", {"eps": 1.5}, id="shadow-eps"),
    pytest.param("shadow-estimate", {"n": 13}, id="shadow-n"),
    pytest.param("certify-dynamics", {"n": 1}, id="dynamics-n-1"),
    pytest.param("certify-dynamics", {"n": 13}, id="dynamics-n-13"),
    pytest.param("verify-bonami", {"n_min": 4, "n_max": 3}, id="bonami-n-order"),
    pytest.param("verify-bonami", {"n_min": 0}, id="bonami-n-min"),
    pytest.param("verify-bonami", {"n_max": 13}, id="bonami-n-max"),
    pytest.param("verify-bonami", {"k": 3}, id="bonami-k"),
    pytest.param("verify-bonami", {"l_min": 1}, id="bonami-l-min"),
    pytest.param("verify-bonami", {"l_min": 9}, id="bonami-l-order"),
    pytest.param("verify-bounds", {"n_min": 4}, id="bounds-n-order"),
    pytest.param("verify-bounds", {"n_min": 0}, id="bounds-n-min"),
    pytest.param("verify-bounds", {"k": 3}, id="bounds-k"),
    pytest.param("verify-bounds", {"beta_min": 4.0}, id="bounds-beta-order"),
    pytest.param("verify-bounds", {"beta_min": -0.5}, id="bounds-beta-min"),
    pytest.param("verify-bounds", {"footnote_n": 13}, id="bounds-footnote-n"),
    pytest.param("verify-bounds", {"footnote_n": 1}, id="bounds-footnote-k"),
    pytest.param("verify-bounds", {"footnote_eps": 1.5}, id="bounds-footnote-eps"),
    pytest.param("verify-bounds", {"footnote_pairs": -1}, id="bounds-footnote-pairs"),
])
def test_out_of_range_param_is_config_error(tmp_path, monkeypatch, capsys, task, params):
    _refused_before_any_trial(tmp_path, monkeypatch, capsys, task, params)


def test_profile_flag_on_task_without_profile_is_config_error(tmp_path, monkeypatch, capsys):
    _refused_before_any_trial(tmp_path, monkeypatch, capsys, "verify-bonami", {"n_max": 2},
                              ("--profile", "strict"))


def test_learn_parallel_records_match_serial(tmp_path):
    # the config and the net built once per task go to the workers by pickle
    base = {"schema_version": 1, "task": "learn-gibbs", "seed": 6, "trials": 4,
            "params": {"samples": 2000}}
    for name, par in (("s", 1), ("p", 2)):
        path = write_config(tmp_path, {**base, "parallelism": par}, f"{name}.json")
        assert main(["--config", path, "--out", str(tmp_path / name)]) == EXIT_OK
    a = json.loads((tmp_path / "s" / "learn-gibbs.json").read_text())
    b = json.loads((tmp_path / "p" / "learn-gibbs.json").read_text())
    assert a["trials"] == b["trials"]
    assert ((tmp_path / "s" / "learn-gibbs_learned.csv").read_bytes()
            == (tmp_path / "p" / "learn-gibbs_learned.csv").read_bytes())


@pytest.mark.parametrize("task, params", [
    pytest.param("shadow-estimate", {"beta": -1.0}, id="shadow-beta"),
    pytest.param("learn-gibbs", {"n": 13}, id="learn-n"),
    pytest.param("certify-gibbs", {"n": 13}, id="gibbs-n"),
    pytest.param("certify-gibbs", {"k": 3}, id="gibbs-k"),
    pytest.param("learn-gibbs", {"n": 3, "on_grid": True}, id="learn-support-qubits"),
])
def test_gibbs_path_range_is_config_error(tmp_path, monkeypatch, capsys, task, params):
    _refused_before_any_trial(tmp_path, monkeypatch, capsys, task, params)


def test_learn_gibbs_table_computed_once_per_task(tmp_path, monkeypatch):
    from isingcert.hamiltonians import HamiltonianNet

    calls = []
    table = HamiltonianNet.gibbs_coeff_matrix

    def counted(net, beta):
        calls.append(beta)
        return table(net, beta)

    monkeypatch.setattr(HamiltonianNet, "gibbs_coeff_matrix", counted)
    for name, extra in (("shadows", {}), ("exact", {"exact_estimates": True})):
        path = write_config(tmp_path, {"schema_version": 1, "task": "learn-gibbs",
                                       "seed": 2, "trials": 3,
                                       "params": {"samples": 500, **extra}}, f"{name}.json")
        assert main(["--config", path, "--out", str(tmp_path / name)]) == EXIT_OK
    assert calls == [1.0, 1.0]
