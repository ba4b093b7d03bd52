import csv
import io
import json
import math
import subprocess
import sys

import pytest

import isingcert.constants as constants
import isingcert.oracle as oracle
import isingcert.shadows as shadows
import isingcert.state_tasks as state_tasks
import isingcert.tasks as tasks
import rng_reference
from isingcert.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, EXIT_PROMISE, build_parser, main
from isingcert.constants import SHADOW_SAMPLE_HARD_CAP
from isingcert.errors import BudgetExceededError, ConfigError
from isingcert.paulis import local_pauli_count
from isingcert.reports import csv_text
from isingcert.tasks import validate_config


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# a small config of every task
SMALL_PARAMS = {
    "certify-dynamics": {"arm": "far"},
    "learn-gibbs": {"samples": 2000},
    "certify-gibbs": {"samples": 2000},
    "verify-bonami": {"n_max": 3},
    "verify-bounds": {"footnote_pairs": 4},
    "shadow-estimate": {"samples": 2000},
}


def forbid_trials(monkeypatch):
    """Fail the test if a trial starts: every driver asks for its trials'
    generators before the first trial runs."""
    def no_trials(*args):
        raise AssertionError("a trial ran before the config was rejected")

    for module in (tasks, state_tasks):
        monkeypatch.setattr(module, "trial_rngs", no_trials)


def test_constants_ledger_flag(capsys):
    assert main(["--constants"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "far_threshold_strict" in out
    assert "trotter_kappa" in out
    # every constant appears exactly once
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert len(names) == len(set(names))


def test_every_shipped_constant_has_one_ledger_row():
    # each public int or float of `constants` has exactly one row, named by
    # its lowercased name and holding its value, and each row names one
    shipped = {name.lower(): value for name, value in vars(constants).items()
               if not name.startswith("_") and type(value) in (int, float)}
    rows = constants.constants_ledger()
    assert sorted(row["name"] for row in rows) == sorted(shipped)
    assert all(row["value"] == shipped[row["name"]] for row in rows)


def test_missing_config_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_unreadable_config(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["--config", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize("raw", [
    pytest.param(b'{"schema_version": 1, "task": "verify-bonami", "seed": ' + b"9" * 5001 + b"}",
                 id="int-past-the-digit-limit"),
    pytest.param(b"[" * 100000, id="nested-past-the-recursion-limit"),
    pytest.param(b"\xff\xfe{}", id="not-utf-8"),
])
def test_malformed_config_file_is_config_error(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["--config", str(path)]) == EXIT_CONFIG
    assert "config error: invalid JSON: " in capsys.readouterr().err


def test_schema_validation_errors(tmp_path, monkeypatch):
    forbid_trials(monkeypatch)
    bonami = {"schema_version": 1, "task": "verify-bonami", "params": {"n_max": 2}}
    cases = [
        {"task": "verify-bonami"},                                   # no version
        {"schema_version": 1, "task": "unknown-task"},
        {"schema_version": 1, "task": "verify-bonami", "seed": -1},
        {"schema_version": 1, "task": "verify-bonami", "params": {"bogus": 1}},
        {"schema_version": 1, "task": "verify-bonami", "params": "x"},
        {**bonami, "parallelism": 0},
        {**bonami, "parallelism": "2"},
        {**bonami, "parallelism": True},
    ]
    for i, raw in enumerate(cases):
        path = write_config(tmp_path, raw, f"c{i}.json")
        assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError):
        validate_config({"schema_version": 2, "task": "verify-bonami"})


def test_unknown_config_key_is_config_error(tmp_path, monkeypatch, capsys):
    forbid_trials(monkeypatch)
    path = write_config(tmp_path, {"schema_version": 1, "task": "verify-bonami", "trails": 2,
                                   "params": {"n_max": 2}})
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == EXIT_CONFIG
    assert "unknown config keys: ['trails']" in capsys.readouterr().err
    assert not out_dir.exists()


def test_budget_overrun_exit_code(tmp_path, monkeypatch, capsys):
    # at n=6, k=3 a batch of the nominal learn-gibbs budget (9.2e14 samples)
    # takes the shadow estimates' partial sums past 2^53
    forbid_trials(monkeypatch)
    cfg = {
        "schema_version": 1, "task": "learn-gibbs", "trials": 1,
        "params": {"n": 6, "k": 3, "support": ["ZIIIII", "ZZIIII", "ZZZIII"],
                   "samples": None, "eta": 0.25},
    }
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_BUDGET
    assert "past 2^53" in capsys.readouterr().err


@pytest.mark.parametrize("task, n, k, support", [
    ("certify-gibbs", 2, 2, None),
    ("certify-gibbs", 3, 2, None),
    ("certify-gibbs", 3, 3, None),
    ("learn-gibbs", 2, 2, ["ZI", "IZ", "ZZ"]),
    ("learn-gibbs", 3, 2, ["ZII", "IZI", "ZZI"]),
    ("learn-gibbs", 3, 3, ["ZII", "ZZI", "ZZZ"]),
])
def test_nominal_sample_budget_runs(tmp_path, task, n, k, support):
    # nominal budgets of 4.7e10 to 1.9e14 samples: each draw is batch
    # histograms, whose cost does not grow with the sample count
    params = {"n": n, "k": k, "samples": None, **({"support": support} if support else {})}
    cfg = {"schema_version": 1, "task": task, "seed": 3, "trials": 2, "params": params}
    out_dir = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out_dir)]) == EXIT_OK
    [report] = [json.loads(p.read_text()) for p in out_dir.glob("*.json")]
    for trial in report["trials"]:
        assert trial["samples_used"] == trial["nominal_budget"] > SHADOW_SAMPLE_HARD_CAP


def test_nominal_budget_past_exact_partial_sums_exits_before_any_trial(tmp_path, monkeypatch,
                                                                       capsys):
    # n=5, k=3: 3^n times the largest nominal batch is about 4.4e16 >= 2^53
    forbid_trials(monkeypatch)
    cfg = {"schema_version": 1, "task": "certify-gibbs", "trials": 2,
           "params": {"n": 5, "k": 3, "samples": None}}
    out_dir = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out_dir)]) == EXIT_BUDGET
    assert "past 2^53" in capsys.readouterr().err
    assert not out_dir.exists()


def test_draw_over_the_entry_cap_exits_before_any_trial(tmp_path, monkeypatch, capsys):
    # n=10, eps 7e-4: the nominal 1.8e9 samples take 26 x 6^10 = 1.6e9 histogram entries
    forbid_trials(monkeypatch)
    cfg = {"schema_version": 1, "task": "shadow-estimate", "trials": 1,
           "params": {"n": 10, "eps": 0.0007}}
    out_dir = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out_dir)]) == EXIT_BUDGET
    assert "1572120576 entries, over the cap" in capsys.readouterr().err
    assert not out_dir.exists()


def test_draw_entry_cap_counts_the_drawn_form():
    cap = shadows.MAX_ARRAY_ENTRIES
    # n=9, 26 batches: 26 x 6^9 > cap, so the draw takes m per-sample indices
    assert shadows.resolve_samples(cap, 1, 9, 26) == cap
    with pytest.raises(BudgetExceededError, match="over the cap"):
        shadows.resolve_samples(cap + 1, 1, 9, 26)
    # n=10: one batch histogram holds 6^10 <= cap entries, two hold more
    assert shadows.resolve_samples(10**11, 1, 10, 1) == 10**11
    with pytest.raises(BudgetExceededError, match="over the cap"):
        shadows.resolve_samples(10**11, 1, 10, 2)


@pytest.mark.parametrize("task, params", [
    ("verify-bonami", {"n_min": 12, "n_max": 12, "k": 4}),
    ("verify-bonami", {"n_min": 12, "n_max": 12, "k": 12}),
    ("verify-bounds", {"n_min": 12, "n_max": 12, "k": 4, "footnote_n": 4}),
    ("verify-bounds", {"n_min": 4, "n_max": 4, "k": 4, "footnote_n": 12}),
    ("shadow-estimate", {"n": 10, "k": 6, "samples": 100}),
    ("certify-gibbs", {"n": 10, "k": 6, "samples": 100}),
], ids=["bonami-k4", "bonami-k12", "bounds-n_max", "bounds-footnote_n", "shadow", "gibbs"])
def test_pauli_plan_over_the_entry_cap_exits_before_any_trial(tmp_path, monkeypatch, capsys,
                                                              task, params):
    # every string of weight <= k puts 2^n entries in each array of the plan:
    # 1.9e8 to 6.9e10 entries here, over the 2^26 cap
    forbid_trials(monkeypatch)
    cfg = {"schema_version": 1, "task": task, "trials": 1, "params": params}
    out_dir = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out_dir)]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.startswith("budget overrun: ") and "Pauli plan" in err
    assert not out_dir.exists()


def test_nominal_budget_refused_only_for_index_draws_over_the_cap():
    cap = SHADOW_SAMPLE_HARD_CAP
    # n=8, 20 batches: batches 6^n = 3.4e7 > m, so the draw takes per-sample indices
    with pytest.raises(BudgetExceededError, match="per-sample indices"):
        shadows.resolve_samples(None, 2 * cap, 8, 20)
    assert shadows.resolve_samples(None, cap, 8, 20) == cap
    assert shadows.resolve_samples(2 * cap, 1, 8, 20) == 2 * cap   # an explicit count runs
    assert shadows.resolve_samples(None, 10**12, 2, 20) == 10**12  # batch histograms
    # 3^n times the largest batch reaches 2^53, nominal or explicit
    assert shadows.resolve_samples(None, 2**53 // 9, 2, 1) == 2**53 // 9
    for requested, nominal in ((None, 2**53 // 9 + 1), (2**53 // 9 + 1, 1)):
        with pytest.raises(BudgetExceededError, match=r"past 2\^53"):
            shadows.resolve_samples(requested, nominal, 2, 1)


@pytest.mark.parametrize("c_op", [1e5, 1e50, 1e150, 1e300], ids=["1e5", "1e50", "1e150", "1e300"])
def test_trotter_step_budget_overrun_exit_code(tmp_path, capsys, c_op):
    # c_op = 1e5 asks one fragment for about 1.3e8 Trotter steps, over the 1e7
    # budget; from about 1e100 on, (c_op t)^3 is past the float range
    cfg = {"schema_version": 1, "task": "certify-dynamics", "trials": 1,
           "params": {"arm": "close", "c_op": c_op}}
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("budget overrun: fragment needs")
    assert not out_dir.exists()


def test_budget_overrun_at_a_late_level_exits_before_any_trial(tmp_path, monkeypatch, capsys):
    # c_op = 6500 puts only level 0 over the Trotter step budget, past the
    # level where a far-arm trial says FAR; the schedule compiles before any trial
    forbid_trials(monkeypatch)
    cfg = {"schema_version": 1, "task": "certify-dynamics", "trials": 2,
           "params": {"arm": "far", "c_op": 6500.0}}
    out_dir = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out_dir)]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("budget overrun: fragment needs")
    assert not out_dir.exists()


def _strict_run(tmp_path, trials, seed=0, **params):
    """Run certify-dynamics with `--profile strict`; returns its report."""
    cfg = {"schema_version": 1, "task": "certify-dynamics", "seed": seed, "trials": trials,
           "params": params}
    out_dir = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out_dir),
                 "--profile", "strict"]) == EXIT_OK
    return json.loads((out_dir / f"certify-dynamics_{params['arm']}.json").read_text())


def test_strict_profile_flag_runs_at_desk_scale(tmp_path):
    # a strict CLOSE run charges every level, and time_bound is that full charge
    payload = _strict_run(tmp_path, 1, arm="close")
    [trial] = payload["trials"]
    assert trial["verdict"] == "CLOSE"
    assert trial["ledger"]["total_evolution_time"] == payload["time_bound"]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("arm", ["close", "far"])
def test_strict_profile_sampled_error_rate_within_delta(tmp_path, n, arm):
    # the paper's closed-form constants, sampled end to end: about 2.6e14
    # experiments charged per level, at a fixed seed
    payload = _strict_run(tmp_path, 20, seed=21, n=n, arm=arm)
    params = payload["resolved_config"]["params"]
    assert (params["profile"], len(payload["trials"])) == ("strict", 20)
    assert payload["error_rate"] <= params["delta"]


def test_promise_violation_exit_code(tmp_path):
    # far arm needs states at least 2 eps apart; eps = 0.8 breaks that
    cfg = {
        "schema_version": 1, "task": "certify-gibbs", "trials": 1,
        "params": {"arm": "far", "eps": 0.8, "samples": 200},
    }
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_PROMISE


def test_instance_outside_coefficient_box_exit_code(tmp_path, capsys):
    # at c_frob = 3 the far-arm gap 12 eps = 2.4 pushes trial 0's H to |h_P| = 1.058
    # and trial 1's gap * direction past 1; the first failing trial is reported
    cfg = {"schema_version": 1, "task": "certify-dynamics", "seed": 1, "trials": 2,
           "params": {"arm": "far", "c_frob": 3.0, "eps": 0.2}}
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == EXIT_PROMISE
    err = capsys.readouterr().err
    assert err.startswith("promise violation: trial 0:") and "c_frob = 3.0" in err
    assert not out_dir.exists()


def test_h_outside_coefficient_box_exit_code(tmp_path, capsys):
    # trial 0 above: H0, the direction and gap * direction stay in the box, H does not
    cfg = {"schema_version": 1, "task": "certify-dynamics", "seed": 1, "trials": 1,
           "params": {"arm": "far", "c_frob": 3.0, "eps": 0.2}}
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == EXIT_PROMISE
    err = capsys.readouterr().err
    assert err.startswith("promise violation: trial 0:") and "H has |h_P| up to 1.058" in err
    assert not out_dir.exists()


def test_promise_violation_fires_before_its_block_is_certified(tmp_path, monkeypatch, capsys):
    # seed 2 is the smallest seed at these params whose trial 0 stays in the box and
    # whose trial 1 leaves it (a scan of seeds 0, 1, 2 with tasks.certifier_coeffs);
    # the two trials share a block
    certified = []
    monkeypatch.setattr(tasks, "certify_block", lambda *args: certified.append(args)
                        or [[1.0] for _ in args[2]])
    cfg = {"schema_version": 1, "task": "certify-dynamics", "seed": 2, "trials": 2,
           "params": {"arm": "far", "c_frob": 3.0, "eps": 0.2}}
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_PROMISE
    assert capsys.readouterr().err.startswith("promise violation: trial 1:")
    assert certified == []


def test_promise_violation_in_a_later_block_names_its_trial(tmp_path, monkeypatch, capsys):
    # one trial per block; at seed 0 trials 0 and 1 stay in the box and trial 2
    # leaves it, so its block is the third and the blocks before it are certified
    monkeypatch.setattr(oracle, "stack_size", lambda *args: 1)
    certified, certify_block = [], tasks.certify_block
    monkeypatch.setattr(tasks, "certify_block",
                        lambda *args: certified.append(len(args[2])) or certify_block(*args))
    cfg = {"schema_version": 1, "task": "certify-dynamics", "seed": 0, "trials": 4,
           "params": {"arm": "far", "c_frob": 2.0, "eps": 0.15}}
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == EXIT_PROMISE
    assert capsys.readouterr().err == (
        "promise violation: trial 2: the instance drawn at c_frob = 2.0 leaves the box "
        "|h_P| <= 1: H has |h_P| up to 1.010549106399133\n")
    assert certified == [1, 1]
    assert not out_dir.exists()


def test_far_arm_gap_beyond_c_frob_is_config_error(tmp_path, monkeypatch, capsys):
    # 12 eps = 1.08 >= c_frob = 1: no far-arm instance exists
    forbid_trials(monkeypatch)
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


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    cfg = {"schema_version": 1, "task": "verify-bonami", "seed": 1, "trials": 50,
           "params": {"n_max": 3}}
    path = write_config(tmp_path, cfg)

    def run(out, *overrides):
        assert main(["--config", path, "--out", str(tmp_path / out), *overrides]) == EXIT_OK
        capsys.readouterr()
        return {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}

    # each call alone, on a parser of its own
    build_parser.cache_clear()
    assert main(["--constants"]) == EXIT_OK
    constants = capsys.readouterr().out
    build_parser.cache_clear()
    overridden = run("alone", "--seed", "9", "--trials", "4")
    build_parser.cache_clear()
    plain = run("plain-alone")
    # the same calls in one process, on one parser
    build_parser.cache_clear()
    parser = build_parser()
    assert main(["--constants"]) == EXIT_OK
    assert capsys.readouterr().out == constants
    assert run("shared", "--seed", "9", "--trials", "4") == overridden
    assert run("plain-shared") == plain
    assert build_parser() is parser
    report = json.loads(overridden["verify-bonami.json"])["resolved_config"]
    assert (report["seed"], report["trials"]) == (9, 4)
    report = json.loads(plain["verify-bonami.json"])["resolved_config"]
    assert (report["seed"], report["trials"]) == (1, 50)


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
    # `parallelism` is echoed in resolved_config and changes nothing else
    for task, params in SMALL_PARAMS.items():
        base = {"schema_version": 1, "task": task, "seed": 4, "trials": 3, "params": params}
        files = {}
        for par in (1, 2):
            out = tmp_path / f"{task}-{par}"
            path = write_config(tmp_path, {**base, "parallelism": par}, f"{task}-{par}.json")
            assert main(["--config", path, "--out", str(out)]) == EXIT_OK
            files[par] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert files[1].keys() == files[2].keys()
        for name, data in files[1].items():
            if name.endswith(".json"):
                a, b = json.loads(data), json.loads(files[2][name])
                assert a["resolved_config"].pop("parallelism") == 1
                assert b["resolved_config"].pop("parallelism") == 2
                assert a == b, task
            else:
                assert data == files[2][name], name



def test_chunked_parallel_records_match_serial(tmp_path):
    # 19 trials, an odd count, give the same records in order at parallelism 1 and 2
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


def test_learn_parallel_records_match_serial(tmp_path):
    # the config and the net built once per task serve every trial at any parallelism
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


def test_cli_import_skips_multiprocessing(tmp_path):
    # trials run in one process, at any parallelism: no process pool is loaded
    path = write_config(tmp_path, {"schema_version": 1, "task": "verify-bonami", "trials": 4,
                                   "parallelism": 2, "params": {"n_max": 3}})
    loaded = "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, isingcert.cli; {loaded}; isingcert.cli.main(sys.argv[1:]); {loaded}",
         "--config", path, "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (tmp_path / "out" / "verify-bonami.json").exists()
    assert lines[0] == lines[-1] == "False False"


def test_dynamics_start_loads_only_what_it_runs(tmp_path):
    # a fresh certify-dynamics process loads neither the Gibbs and shadow
    # layers nor the other tasks' drivers, and no src/ class is a dataclass
    path = write_config(tmp_path, {"schema_version": 1, "task": "certify-dynamics",
                                   "trials": 1, "params": {"arm": "close", "eps": 0.2}})
    unused = ("isingcert.gibbs", "isingcert.shadows", "isingcert.state_tasks", "dataclasses",
              "isingcert.calibration", "isingcert.stabilizers")
    loaded = f"print([m for m in {unused!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, isingcert.cli; {loaded}; rc = isingcert.cli.main(sys.argv[1:]); "
         f"{loaded}; sys.exit(rc)",
         "--config", path, "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (tmp_path / "out" / "certify-dynamics_close.json").exists()
    assert lines[0] == lines[-1] == "[]"


def test_all_names_resolve():
    # a stale __all__ entry breaks `from isingcert import *`
    import isingcert

    missing = [name for name in isingcert.__all__ if not hasattr(isingcert, name)]
    assert not missing


def _override_is_rejected(tmp_path, monkeypatch, capsys, flag, value):
    forbid_trials(monkeypatch)
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
    # --parallelism is no longer a flag: argparse refuses it with exit code 2
    forbid_trials(monkeypatch)
    path = write_config(tmp_path, {"schema_version": 1, "task": "verify-bonami", "trials": 3,
                                   "params": {"n_max": 2}})
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", path, "--out", str(out_dir), "--parallelism", "0"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --parallelism 0" in capsys.readouterr().err
    assert not out_dir.exists()


def test_negative_seed_override_is_config_error(tmp_path, monkeypatch, capsys):
    _override_is_rejected(tmp_path, monkeypatch, capsys, "--seed", "-3")


def _param_is_rejected(tmp_path, monkeypatch, capsys, task, params, name):
    forbid_trials(monkeypatch)
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
    forbid_trials(monkeypatch)
    path = write_config(tmp_path, {"schema_version": 1, "task": "certify-dynamics",
                                   "trials": 1, "params": {"eta": 0.25}})
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "unknown params for certify-dynamics: ['eta']" in capsys.readouterr().err


def _refused_before_any_trial(tmp_path, monkeypatch, capsys, task, params, flags=()):
    forbid_trials(monkeypatch)
    path = write_config(tmp_path, {"schema_version": 1, "task": task, "trials": 2,
                                   "params": params})
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert not out_dir.exists()
    return err


@pytest.mark.parametrize("task, params", [
    pytest.param("learn-gibbs", {"eps": 2.0}, id="learn-eps"),
    pytest.param("learn-gibbs", {"n": 2, "k": 1, "support": ["ZI", "ZZ"]},
                 id="learn-support-weight"),
    pytest.param("learn-gibbs", {"samples": 0}, id="learn-samples"),
    pytest.param("learn-gibbs", {"eta": -0.5}, id="learn-eta"),
    # 1/eta past the float range, and a grid numpy cannot allocate
    pytest.param("learn-gibbs", {"eta": 1e-320}, id="learn-eta-subnormal"),
    pytest.param("learn-gibbs", {"eta": 5e-324}, id="learn-eta-smallest"),
    pytest.param("learn-gibbs", {"eta": 1e-30}, id="learn-eta-tiny"),
    pytest.param("certify-dynamics", {"eps": -1}, id="dynamics-eps"),
    # 2 c_frob / (15 eps), the schedule's top ratio, past the float range
    pytest.param("certify-dynamics", {"eps": 1e-310}, id="dynamics-eps-subnormal"),
    # delta / (L + 1) underflows to 0, or puts ln(2 / delta_l) past the float range
    pytest.param("certify-dynamics", {"delta": 5e-324}, id="dynamics-delta-5e-324"),
    pytest.param("certify-dynamics", {"delta": 1e-310}, id="dynamics-delta-1e-310"),
    # the arm's gap is checked before the schedule compiles: 12 eps >= c_frob
    # exits 2 although c_op = 1e150 would overrun the step budget (exit 3)
    pytest.param("certify-dynamics", {"arm": "far", "eps": 0.1, "c_op": 1e150},
                 id="dynamics-far-gap-before-budget"),
    pytest.param("certify-dynamics", {"arm": "nope"}, id="dynamics-arm"),
    pytest.param("certify-dynamics", {"profile": "nope"}, id="dynamics-profile"),
    # certify-dynamics has one estimator: no param selects or perturbs it
    pytest.param("certify-dynamics", {"estimator": "oracle", "synthetic_noise": 0.1},
                 id="dynamics-estimator-params"),
    pytest.param("certify-gibbs", {"beta": 0.0}, id="gibbs-beta"),
    pytest.param("certify-gibbs", {"samples": -5}, id="gibbs-samples"),
    # exact estimates draw no samples, but a count below 1 is still refused
    pytest.param("learn-gibbs", {"exact_estimates": True, "samples": -5},
                 id="learn-exact-samples"),
    pytest.param("shadow-estimate", {"eps": 1.5}, id="shadow-eps"),
    pytest.param("shadow-estimate", {"n": 13}, id="shadow-n"),
    # the median-of-means batch count divides by delta and takes ln(200 n^k / delta)
    pytest.param("shadow-estimate", {"delta": 0.0}, id="shadow-delta-0"),
    pytest.param("shadow-estimate", {"delta": -0.1}, id="shadow-delta-negative"),
    pytest.param("shadow-estimate", {"n": 0}, id="shadow-n-0"),
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
    # pair indices must each fit one 32-bit spawn word
    pytest.param("verify-bounds", {"footnote_pairs": 2**32 + 1}, id="bounds-footnote-pairs-2-32"),
    # non-finite floats: NaN fails every range check, and +-inf is out of range
    pytest.param("certify-dynamics", {"c_op": math.nan}, id="dynamics-c-op-nan"),
    pytest.param("certify-dynamics", {"c_op": math.inf}, id="dynamics-c-op-inf"),
    pytest.param("certify-dynamics", {"c_frob": math.inf}, id="dynamics-c-frob-inf"),
    pytest.param("shadow-estimate", {"beta": math.nan}, id="shadow-beta-nan"),
    pytest.param("shadow-estimate", {"beta": math.inf}, id="shadow-beta-inf"),
    pytest.param("verify-bounds", {"beta_min": math.nan}, id="bounds-beta-min-nan"),
    pytest.param("verify-bounds", {"beta_max": math.nan}, id="bounds-beta-max-nan"),
    pytest.param("verify-bounds", {"beta_max": math.inf}, id="bounds-beta-max-inf"),
    # 800 beta n_max^k, the bound chain's largest product, past the float range
    pytest.param("verify-bounds", {"beta_max": 1e305}, id="bounds-beta-max-huge"),
    pytest.param("verify-bounds", {"beta_max": 1.7e308}, id="bounds-beta-max-float-max"),
    pytest.param("certify-gibbs", {"beta": math.nan}, id="gibbs-beta-nan"),
    pytest.param("learn-gibbs", {"beta": math.inf}, id="learn-beta-inf"),
    # a huge finite beta takes the per-string accuracy's square to 0
    pytest.param("learn-gibbs", {"beta": 1e300}, id="learn-beta-huge"),
    pytest.param("learn-gibbs", {"beta": 1e300, "exact_estimates": True},
                 id="learn-beta-huge-exact"),
    pytest.param("certify-gibbs", {"beta": 1e300}, id="gibbs-beta-huge"),
    # |lambda|^l_max would overflow the moments' sums
    pytest.param("verify-bonami", {"l_max": 400}, id="bonami-l-max-overflow"),
    # at k = 0 every instance is H = 0, and no float rule bounds l_max
    pytest.param("verify-bonami", {"n_max": 2, "k": 0, "l_max": 200000}, id="bonami-k-0"),
    # the same for the bound chain: every lhs and rhs would be 0.0
    pytest.param("verify-bounds", {"k": 0, "footnote_pairs": 2}, id="bounds-k-0"),
])
def test_out_of_range_param_is_config_error(tmp_path, monkeypatch, capsys, task, params):
    _refused_before_any_trial(tmp_path, monkeypatch, capsys, task, params)


@pytest.mark.parametrize("task, module, kernel", [
    pytest.param("certify-dynamics", tasks, "certify_block", id="dynamics"),
    pytest.param("shadow-estimate", state_tasks, "estimate_paulis", id="shadow"),
])
def test_value_error_in_a_trial_is_a_fault(tmp_path, monkeypatch, task, module, kernel):
    # run_task's config boundary covers the driver's config step only: a
    # ValueError out of a trial propagates out of main, and never exits 2
    def fault(*args):
        raise ValueError("a fault in a trial")

    monkeypatch.setattr(module, kernel, fault)
    path = write_config(tmp_path, {"schema_version": 1, "task": task, "trials": 2,
                                   "params": SMALL_PARAMS[task]})
    with pytest.raises(ValueError, match="a fault in a trial") as raised:
        main(["--config", path, "--out", str(tmp_path / "out")])
    assert not isinstance(raised.value, ConfigError)


def test_largest_l_max_below_the_float_maximum_runs(tmp_path, monkeypatch, capsys):
    # n_max 5, k 2: T = 106 strings, and 2^5 106^l reaches the float maximum
    # from l = 152 on
    params = {"n_min": 5, "n_max": 5, "l_max": 151}
    _refused_before_any_trial(tmp_path, monkeypatch, capsys, "verify-bonami",
                              {**params, "l_max": 152})
    monkeypatch.undo()
    path = write_config(tmp_path, {"schema_version": 1, "task": "verify-bonami",
                                   "trials": 2, "params": params})
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_largest_beta_max_below_the_float_maximum_runs(tmp_path):
    # n_max 3, k 2: 800 beta 9 passes the float maximum between 1e304 and 1e305
    path = write_config(tmp_path, {"schema_version": 1, "task": "verify-bounds", "trials": 3,
                                   "params": {"beta_max": 1e304, "footnote_pairs": 2}})
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_certify_gibbs_small_beta_names_beta(tmp_path, monkeypatch, capsys):
    # eps 0.3, n = k = 2: at beta <= eps^2 / (800 n^k) = 2.8e-5 the per-Pauli
    # accuracy is >= 1, with eps and delta in range and explicit samples
    err = _refused_before_any_trial(tmp_path, monkeypatch, capsys, "certify-gibbs",
                                    {"beta": 1e-5, "samples": 100})
    assert "beta=1e-05 puts the per-Pauli accuracy eps^2/(800 beta n^k) at 2.81, " \
           "not below 1" in err
    assert "eps and delta" not in err


def test_shadow_estimate_bad_delta_and_n_name_their_ranges(tmp_path, monkeypatch, capsys):
    err = _refused_before_any_trial(tmp_path, monkeypatch, capsys, "shadow-estimate",
                                    {"delta": 0.0})
    assert "eps and delta must be in (0, 1)" in err
    err = _refused_before_any_trial(tmp_path, monkeypatch, capsys, "shadow-estimate", {"n": 0})
    assert "n=0 out of supported range" in err


@pytest.mark.parametrize("task, params", [
    pytest.param("shadow-estimate", {}, id="shadow"),
    pytest.param("certify-gibbs", {"arm": "equal"}, id="gibbs-equal"),
    # one string at eta 1: a 3-member net, so the refusal is all the run costs
    pytest.param("learn-gibbs", {"support": ["Z" + "I" * 10], "eta": 1.0}, id="learn"),
])
def test_shadow_tasks_past_ten_qubits_are_refused(tmp_path, monkeypatch, capsys, task, params):
    # a Born table at n = 11 has 6^11 entries, and building it holds complex
    # arrays of 2.4 GiB
    err = _refused_before_any_trial(tmp_path, monkeypatch, capsys, task,
                                    {"n": 11, "k": 1, "samples": 10, **params})
    assert "n=11 is over the 10 qubits that shadow sampling supports: a Born table has " \
           "6^n = 362797056 entries" in err


def test_learn_gibbs_exact_estimates_past_ten_qubits_pass_the_config(monkeypatch):
    # exact estimates draw no shadows, so the run gets as far as its first
    # trial; the net's Gibbs table, seconds of 2^11 eigendecompositions, is skipped
    forbid_trials(monkeypatch)
    monkeypatch.setattr(state_tasks.HamiltonianNet, "gibbs_coeff_matrix", lambda net, beta: None)
    with pytest.raises(AssertionError, match="a trial ran"):
        tasks.run_task({"task": "learn-gibbs", "trials": 1, "params": {
            "n": 11, "k": 1, "support": ["Z" + "I" * 10], "eta": 1.0, "exact_estimates": True}})


@pytest.mark.parametrize("task", ["verify-bonami", "certify-dynamics"])
def test_trials_past_one_spawn_word_are_refused(tmp_path, monkeypatch, capsys, task):
    # trial indices t < 2^32 each fit one 32-bit spawn word; never run such a
    # config without forbid_trials
    err = _refused_before_any_trial(tmp_path, monkeypatch, capsys, task, {},
                                    ("--trials", str(2**32 + 1)))
    assert "trials must be at most 4294967296" in err
    assert validate_config({"schema_version": 1, "task": task, "trials": 2**32})["trials"] == 2**32


@pytest.mark.parametrize("where", ["file", "below-file", "env-file"])
def test_out_path_at_or_below_a_file_is_refused_before_any_trial(tmp_path, monkeypatch, capsys,
                                                                 where):
    forbid_trials(monkeypatch)
    blocker = tmp_path / "report"
    blocker.write_text("kept")
    out_dir = blocker / "sub" if where == "below-file" else blocker
    path = write_config(tmp_path, {"schema_version": 1, "task": "verify-bonami", "trials": 2,
                                   "params": {"n_max": 2}})
    argv = ["--config", path]
    if where == "env-file":
        monkeypatch.setenv("ISINGCERT_OUT", str(out_dir))
    else:
        argv += ["--out", str(out_dir)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: out path {out_dir} cannot be a directory: {blocker} is not one" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "report"]
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("where, out, reason", [
    pytest.param("config", "a\0b", "embedded null byte", id="config-nul"),
    pytest.param("flag", "a\0b", "embedded null byte", id="flag-nul"),
    pytest.param("config", "x" * 300, "File name too long", id="config-long-component"),
    pytest.param("flag", "x" * 300 + "/sub", "File name too long", id="flag-long-component"),
    pytest.param("env", "x" * 300, "File name too long", id="env-long-component"),
])
def test_unusable_out_path_is_refused_before_any_trial(tmp_path, monkeypatch, capsys,
                                                       where, out, reason):
    forbid_trials(monkeypatch)
    monkeypatch.chdir(tmp_path)
    config = {"schema_version": 1, "task": "verify-bonami", "trials": 2, "params": {"n_max": 2}}
    argv = []
    if where == "config":
        config["out"] = out
    elif where == "flag":
        argv = ["--out", out]
    else:
        monkeypatch.setenv("ISINGCERT_OUT", out)
    path = write_config(tmp_path, config)
    assert main(["--config", path, *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: out path {out!r} is unusable: {reason}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("delta", [5e-324, 1e-310])
def test_dynamics_subnormal_delta_names_delta(tmp_path, monkeypatch, capsys, delta):
    # eps 0.05 runs 6 levels
    err = _refused_before_any_trial(tmp_path, monkeypatch, capsys, "certify-dynamics",
                                    {"delta": delta})
    assert f"delta={delta} is too small: split over 6 levels" in err


def test_dynamics_n_1_names_n(tmp_path, monkeypatch, capsys):
    err = _refused_before_any_trial(tmp_path, monkeypatch, capsys, "certify-dynamics", {"n": 1})
    assert "n=1 out of range [2, 12]" in err and "2-local" in err


def test_profile_flag_on_task_without_profile_is_config_error(tmp_path, monkeypatch, capsys):
    _refused_before_any_trial(tmp_path, monkeypatch, capsys, "verify-bonami", {"n_max": 2},
                              ("--profile", "strict"))


@pytest.mark.parametrize("task, params", [
    pytest.param("shadow-estimate", {"beta": -1.0}, id="shadow-beta"),
    pytest.param("learn-gibbs", {"n": 13}, id="learn-n"),
    pytest.param("certify-gibbs", {"n": 13}, id="gibbs-n"),
    pytest.param("certify-gibbs", {"k": 3}, id="gibbs-k"),
    pytest.param("learn-gibbs", {"n": 3, "on_grid": True}, id="learn-support-qubits"),
    pytest.param("learn-gibbs", {"support": ["ZI", "ZI", "ZZ"]}, id="learn-support-repeated"),
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


def test_certify_gibbs_far_born_tables_built_once_per_task(tmp_path, monkeypatch):
    built, drawn = [], []
    table, collect = shadows._joint_distribution, state_tasks.collect_shadows
    monkeypatch.setattr(shadows, "_joint_distribution",
                        lambda rho, n: built.append(n) or table(rho, n))
    monkeypatch.setattr(state_tasks, "collect_shadows",
                        lambda *args: drawn.append(args[1]) or collect(*args))
    path = write_config(tmp_path, {"schema_version": 1, "task": "certify-gibbs", "seed": 3,
                                   "trials": 4, "params": {"arm": "far", "samples": 2000}})
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert built == [2, 2]
    assert drawn == [2000] * 8   # both states, every trial


def test_shadow_estimate_per_sample_regime_end_to_end(tmp_path):
    # n=5 at its nominal sample count: the median-of-means histograms would
    # hold more entries than the samples, so the draw keeps per-sample indices
    from isingcert.shadows import mom_batches, shadow_budget

    samples = shadow_budget(5, 2, 0.1, 0.05)
    assert mom_batches(5, 2, 0.05) * 6**5 > samples
    cfg = {"schema_version": 1, "task": "shadow-estimate", "seed": 13, "trials": 20,
           "params": {"n": 5, "samples": samples}}
    path = write_config(tmp_path, cfg)
    runs = []
    for name in ("a", "b"):
        assert main(["--config", path, "--out", str(tmp_path / name)]) == EXIT_OK
        runs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert runs[0] == runs[1]
    report = json.loads(runs[0]["shadow-estimate.json"])
    trials = len(report["trials"])
    floor = math.ceil(0.95 * trials - 3 * math.sqrt(trials * 0.95 * 0.05))
    assert report["success_count"] >= floor


@pytest.mark.parametrize("arm", ["close", "far"])
def test_dynamics_levels_table(tmp_path, arm):
    cfg = {"schema_version": 1, "task": "certify-dynamics", "seed": 8, "trials": 4,
           "params": {"arm": arm}}
    out_dir = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out_dir)]) == EXIT_OK
    report = json.loads((out_dir / f"certify-dynamics_{arm}.json").read_text())
    with open(out_dir / f"certify-dynamics_{arm}_levels.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["trial", "level", "eps", "delta", "estimate", "threshold",
                             "verdict", "samples", "trotter_steps"]
    big_l = report["schedule_levels"] - 1
    for trial in report["trials"]:
        mine = [r for r in rows if int(r["trial"]) == trial["trial"]]
        # levels run from L down; a CLOSE trial passes them all, a FAR one
        # stops at its first FAR level
        assert [int(r["level"]) for r in mine] == list(range(big_l, big_l - len(mine), -1))
        assert [r["verdict"] for r in mine[:-1]] == ["CLOSE"] * (len(mine) - 1)
        assert mine[-1]["verdict"] == trial["verdict"]
        if trial["verdict"] == "CLOSE":
            assert len(mine) == report["schedule_levels"]
    assert sorted({int(r["trial"]) for r in rows}) == [t["trial"] for t in report["trials"]]
    # the arm's own verdict, so its row pattern is exercised
    assert any(t["verdict"] == arm.upper() for t in report["trials"])


@pytest.mark.parametrize("n, arm", [(2, "close"), (2, "far"), (3, "close"), (3, "far")])
def test_dynamics_reports_do_not_depend_on_the_block_size(tmp_path, monkeypatch, n, arm):
    # blocks of 1 trial, of 3 (7 trials end in a partial block) and of all 7
    cfg = {"schema_version": 1, "task": "certify-dynamics", "seed": 9, "trials": 7,
           "params": {"n": n, "arm": arm}}
    path = write_config(tmp_path, cfg)
    terms = local_pauli_count(n, 2) - 1
    runs = []
    for size in (1, 3, 7):
        monkeypatch.setattr(oracle, "STACK_CHUNK_BYTES", size * 16 * 2 * 2**n * max(2**n, terms))
        assert oracle.stack_size(n, 2, terms) == size
        out_dir = tmp_path / f"block-{size}"
        assert main(["--config", path, "--out", str(out_dir)]) == EXIT_OK
        runs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert len(runs[0]) == 3
    assert runs[0] == runs[1] == runs[2]


def _report_files(tmp_path, name, task, params):
    cfg = {"schema_version": 1, "task": task, "seed": 4, "trials": 3, "params": params}
    out_dir = tmp_path / name
    assert main(["--config", write_config(tmp_path, cfg, f"{name}.json"),
                 "--out", str(out_dir)]) == EXIT_OK
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


@pytest.mark.parametrize("task, default, params", [("certify-dynamics", "close", {}),
                                                   ("certify-gibbs", "equal", {"samples": 2000})])
def test_report_named_from_the_resolved_arm(tmp_path, task, default, params):
    # a run that omits `arm` writes the same files, names and bytes, as one
    # that gives the default arm
    omitted = _report_files(tmp_path, "omitted", task, params)
    given = _report_files(tmp_path, "given", task, {**params, "arm": default})
    assert f"{task}_{default}.json" in omitted
    assert omitted == given


def test_reports_equal_with_per_trial_seed_sequences(tmp_path, monkeypatch):
    # the bulk-seeded generators against one SeedSequence per trial and key,
    # on every task and both arms of each arm-taking task
    cases = [*SMALL_PARAMS.items(), ("certify-dynamics", {"arm": "close"}),
             ("certify-gibbs", {"arm": "far", "samples": 2000}),
             ("learn-gibbs", {"samples": 2000, "on_grid": True})]
    bulk = [_report_files(tmp_path, f"bulk{i}", *case) for i, case in enumerate(cases)]
    for module in (tasks, state_tasks):
        monkeypatch.setattr(module, "trial_rngs", rng_reference.trial_rngs)
    for i, case in enumerate(cases):
        assert _report_files(tmp_path, f"loop{i}", *case) == bulk[i], case


def test_csv_tables_equal_csv_writers(tmp_path):
    for task, params in SMALL_PARAMS.items():
        _, tables = tasks.run_task({"task": task, "seed": 4, "trials": 3, "params": params})
        for header, rows in tables.values():
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(header)
            writer.writerows(rows)
            assert csv_text(header, rows) == buf.getvalue(), task
