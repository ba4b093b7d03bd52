import csv
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from certifier_reference import (CertReport, LevelRecord, certifier_instance, certify_trial,
                                  charged_snapshot, level_records, one_level,
                                  uncompiled_schedule)
from hamiltonian_reference import (frobenius_norm, hamiltonian_diff, hamiltonian_sum,
                                   random_fixed_norm)
from isingcert import constants as con
from isingcert import certifier, oracle, tasks
from isingcert.certifier import (
    CLOSE,
    FAR,
    PROFILES,
    CertConfig,
    certify_block,
    decide,
    eigenbasis_identity_sq,
    evolution_time_bound,
)
from isingcert.cli import EXIT_OK, main
from isingcert.dynamics import ExperimentLedger, charge_plan, trotter_compile
from isingcert.errors import BudgetExceededError
from isingcert.identity_estimator import estimate_identity_sq, sample_count
from isingcert.hamiltonians import LocalHamiltonian
from isingcert.oracle import evolve_matrix, hermitian_eig, identity_coeff
from isingcert.paulis import PauliString, enumerate_local_paulis, pauli_sum_matrix
from isingcert.reports import canonical_json, csv_text
from pauli_reference import local_clifford_rows
from rng_reference import trial_rng

P = PauliString.from_label

E6C2 = math.exp(6.0) * con.SERIES_TAIL_SUM**2


def certify_at(h0, h, eps, delta, config, rng):
    """One bounded-promise call at accuracy eps: a one-level block whose
    record is level -1."""
    single = one_level(config, eps, delta)
    spectra = tuple(a[None] for a in (*h0.spectrum(), *h.spectrum()))
    [estimates] = certify_block(spectra, single, [rng])
    [record] = level_records(single.levels, estimates, config.profile.far_threshold)
    return record.verdict, record


def certify_literal(h0, h, config, rng) -> CertReport:
    """Per-level reference for `certify_trial`: compile each level of the
    uncompiled schedule as it is reached, realize its fragment and run the
    estimator on that one query step.  `config` is a CertConfig, or any
    object with its eps, delta, c_op, c_frob and profile."""
    rng = np.random.default_rng(rng)
    profile = config.profile
    ledger = ExperimentLedger()
    records, verdict = [], CLOSE
    for level, eps_l, delta_l in uncompiled_schedule(config.eps, config.delta, config.c_frob):
        frag = trotter_compile(h0, profile.time_for(eps_l), profile.eps_trott, config.c_op)
        est = estimate_identity_sq((frag,), h, h0.n, profile.est_accuracy, delta_l, rng)
        charge_plan((frag,), ledger, repeat=est.samples_used)
        verdict = decide(est.value, profile.far_threshold)
        records.append(LevelRecord(level, eps_l, delta_l, est.value, profile.far_threshold,
                                   verdict, est.samples_used, frag.steps))
        if verdict == FAR:
            break
    return CertReport(verdict, records, ledger.snapshot())


def test_strict_constants_closed_forms():
    prof = PROFILES["strict"]
    assert con.SERIES_TAIL_SUM == pytest.approx(1 / (1 - math.exp(-2)), rel=1e-15)
    assert prof.far_threshold == pytest.approx(1 - 23 / (2400 * E6C2), rel=1e-15)
    assert prof.est_accuracy == pytest.approx(1 / (4800 * E6C2), rel=1e-15)
    assert prof.eps_trott == pytest.approx(1 / (19200 * E6C2), rel=1e-15)
    assert prof.spam_budget == pytest.approx(1 / (9600 * E6C2), rel=1e-15)
    eps = 0.037
    assert prof.time_for(eps) == pytest.approx(
        1 / (60 * eps * math.exp(3) * con.SERIES_TAIL_SUM), rel=1e-15)
    assert 0 < prof.far_threshold < 1


def test_decision_rule_at_paper_margins():
    thr = PROFILES["strict"].far_threshold
    unit = 1 / (2400 * E6C2)
    assert decide(1 - 24 / (2400 * E6C2), thr) == FAR
    assert decide(1 - 2 / (2400 * E6C2), thr) == CLOSE
    assert decide(thr - unit, thr) == FAR
    assert decide(thr + unit, thr) == CLOSE


def test_decision_rule_bit_exact():
    thr = PROFILES["calibrated"].far_threshold
    assert decide(thr, thr) == FAR           # boundary belongs to FAR
    assert decide(thr - 1e-12, thr) == FAR
    assert decide(thr + 1e-12, thr) == CLOSE


def test_schedule_example():
    config = CertConfig(eps=0.1, delta=0.1, c_frob=1.0)
    assert [lvl[0] for lvl in config.levels] == [2, 1, 0]
    eps_seq = [lvl[1] for lvl in config.levels]
    assert eps_seq == pytest.approx([0.15625, 0.125, 0.1])
    for lvl in config.levels:
        assert lvl[2] == pytest.approx(0.1 / 3)
    assert config.log_factor() == math.log(2.0 * 3 / 0.1)
    # the compiled levels keep the uncompiled schedule's floats
    assert [lvl[:3] for lvl in config.levels] == uncompiled_schedule(0.1, 0.1)


def test_schedule_invariants():
    for eps, c_frob in ((0.05, 1.0), (0.02, 3.0), (0.3, 1.0)):
        sched = CertConfig(eps=eps, delta=0.1, c_frob=c_frob)
        eps_top = sched.levels[0][1]
        assert eps_top >= 2 * c_frob / 15 - 1e-12
        seq = [lvl[1] for lvl in sched.levels]
        assert seq[-1] == pytest.approx(eps)
        for hi, lo in zip(seq, seq[1:]):
            # chaining: 12 eps_l <= 15 eps_{l-1}
            assert 12 * hi <= 15 * lo * (15 / 12) + 1e-12
            assert hi == pytest.approx(lo * 15 / 12)


def test_config_validation():
    with pytest.raises(ValueError):
        CertConfig(eps=1.5, delta=0.1, c_frob=1.0)
    with pytest.raises(ValueError):
        CertConfig(eps=0.1, delta=0.0)
    with pytest.raises(ValueError):
        CertConfig(eps=0.1, delta=0.1, c_op=0.5)
    with pytest.raises(ValueError):
        CertConfig(eps=0.1, delta=0.1, profile="nope")
    # delta / (L + 1) underflows to 0, or puts ln(2 / delta_l) past the float range
    for delta in (5e-324, 1e-310):
        with pytest.raises(ValueError, match=f"delta={delta} is too small: split over 3 levels"):
            CertConfig(eps=0.1, delta=delta)


def test_strict_profile_sampled_run_completes():
    # each level charges about 2.6e14 experiments and makes one binomial draw
    h0 = LocalHamiltonian(1, 1, {P("Z"): 0.2})
    config = CertConfig(eps=0.05, delta=0.1, profile="strict")
    for gap, expected in ((0.02, CLOSE), (0.7, FAR)):
        h = LocalHamiltonian(1, 1, {P("Z"): 0.2 + gap})
        report = certify_trial(h0, h, config, np.random.default_rng(0))
        assert report.verdict == expected
        assert min(level.samples for level in report.levels) > 2.5e14
        assert report.ledger["experiment_count"] == sum(level.samples for level in report.levels)


def test_strict_profile_oracle_verdicts():
    # sampled strict subroutine calls against the exact oracle's ||H - H0||_F
    rng = np.random.default_rng(7)
    for far in (False, True):
        for seed in range(10):
            h0, h = certifier_instance(np.random.SeedSequence((seed, far)), 2, 0.02, far)
            eps = 0.02
            config = CertConfig(eps=eps, delta=0.1, c_op=2.0, c_frob=1.0, profile="strict")
            verdict, record = certify_at(h0, h, eps, 0.1, config, rng)
            gap = frobenius_norm(hamiltonian_diff(h, h0))
            if verdict == FAR:
                assert gap >= eps
            else:
                assert gap <= 12 * eps


def test_subroutine_trotter_error_within_profile():
    prof = PROFILES["calibrated"]
    h0, h = certifier_instance(np.random.SeedSequence(5), 2, 0.05, True)
    from isingcert.dynamics import trotter_compile

    t = prof.time_for(0.05)
    frag = trotter_compile(h0, t, prof.eps_trott, 2.0)
    target = evolve_matrix(h.to_matrix() - h0.to_matrix(), t)
    err = float(np.linalg.norm(frag.realize(h) - target, ord=2))
    assert err <= prof.eps_trott


def test_monotone_suppression_in_perturbation_scale():
    # within the bounded-promise window, 1 - |u_I(t a dH)|^2 grows with a
    rng = np.random.default_rng(9)
    prof = PROFILES["strict"]
    eps = 0.05
    t = prof.time_for(eps)
    for _ in range(10):
        d = random_fixed_norm(2, 2, rng, 1.0)
        dm = d.to_matrix()
        scales = np.linspace(0.1, 15 * eps, 12)
        vals = [1 - abs(identity_coeff(evolve_matrix(a * dm, t))) ** 2 for a in scales]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_end_to_end_close_and_far():
    errors = 0
    for seed in range(15):
        for far in (False, True):
            h0, h = certifier_instance(np.random.SeedSequence((2, seed, far)), 2, 0.05, far)
            config = CertConfig(eps=0.05, delta=0.1, c_op=2.0, c_frob=1.0)
            report = certify_trial(h0, h, config, np.random.default_rng(seed))
            expected = FAR if far else CLOSE
            errors += report.verdict != expected
    assert errors == 0


def test_identical_hamiltonians_close():
    h0 = random_fixed_norm(2, 2, 3, 0.5)
    config = CertConfig(eps=0.05, delta=0.1, c_op=2.0, c_frob=1.0)
    report = certify_trial(h0, h0, config, np.random.default_rng(1))
    assert report.verdict == CLOSE
    assert len(report.levels) == len(config.levels)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_certify_diagonalizes_each_hamiltonian_once(n, monkeypatch):
    calls = []

    def counted(a):
        calls.append(a.shape)
        return hermitian_eig(a)

    monkeypatch.setattr(oracle, "hermitian_eig", counted)
    levels = []
    for eps in (0.2, 0.05):   # one level, then six
        h0, h = certifier_instance(np.random.SeedSequence((30, n)), n, eps, False)
        calls.clear()
        report = certify_trial(h0, h, CertConfig(eps=eps, delta=0.1, c_op=2.0),
                               np.random.default_rng(n))
        assert calls == [(2**n, 2**n)] * 2
        levels.append(len(report.levels))
    assert levels == [1, 6]


def test_zero_gap_subroutine_monte_carlo():
    # 50 sampled subroutine calls on dH = 0 stay CLOSE in >= 90% of trials
    h0 = random_fixed_norm(2, 2, 4, 0.5)
    config = CertConfig(eps=0.05, delta=0.1, c_op=2.0, c_frob=1.0)
    rng = np.random.default_rng(44)
    close = 0
    for _ in range(50):
        verdict, _ = certify_at(h0, h0, 0.05, 0.1, config, rng)
        close += verdict == CLOSE
    assert close >= 45


def test_far_perturbation_at_fourteen_epsilons():
    eps = 0.05
    h0 = random_fixed_norm(2, 2, 5, 0.2)
    direction = random_fixed_norm(2, 2, 6, 1.0)
    h = hamiltonian_sum(h0, direction.scaled(14.4 * eps))
    assert frobenius_norm(hamiltonian_diff(h, h0)) == pytest.approx(14.4 * eps)
    config = CertConfig(eps=eps, delta=0.1, c_op=2.0, c_frob=1.0)
    wrong = 0
    for seed in range(10):
        report = certify_trial(h0, h, config, np.random.default_rng(seed))
        wrong += report.verdict != FAR
    assert wrong == 0


def test_ledger_time_within_shipped_bound():
    config = CertConfig(eps=0.05, delta=0.1, c_op=2.0, c_frob=1.0)
    h0, h = certifier_instance(np.random.SeedSequence(11), 2, 0.05, False)
    report = certify_trial(h0, h, config, np.random.default_rng(2))
    assert report.ledger["total_evolution_time"] <= evolution_time_bound(config)


def test_report_payload_complete():
    h0, h = certifier_instance(np.random.SeedSequence(12), 2, 0.05, False)
    config = CertConfig(eps=0.05, delta=0.1, c_op=2.0, c_frob=1.0)
    report = certify_trial(h0, h, config, np.random.default_rng(3))
    assert report.verdict in (CLOSE, FAR)
    for level in report.levels:
        assert set(level._asdict()) >= {"level", "eps", "delta", "estimate", "threshold",
                                        "verdict", "samples", "trotter_steps"}
    assert report.ledger["total_evolution_time"] > 0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_certify_equals_per_level_reference(n):
    # sampled: the same hit draws, so records and ledgers are equal, not close
    for far in (False, True):
        for seed in range(4):
            h0, h = certifier_instance(np.random.SeedSequence((31, n, seed, far)), n, 0.05, far)
            config = CertConfig(eps=0.05, delta=0.1, c_op=2.0)
            report = certify_trial(h0, h, config, np.random.default_rng(seed))
            assert report == certify_literal(h0, h, config, np.random.default_rng(seed))
            assert report.verdict == (FAR if far else CLOSE)


def step_tolerance(steps: int, n: int) -> float:
    """How far two evaluations of |Tr V / 2^n|^2 may differ: each rounds one
    Trotter step to about 2^n ulps, and `steps` powers amplify that linearly.
    At strict eps = 0.002 (up to about 2000 steps) realize itself is 1e-12 to
    3e-12 off a long-double evaluation at n = 2, 3."""
    return max(1e-12, 4 * steps * 2**n * np.finfo(float).eps)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("profile,eps", [("calibrated", 0.05), ("strict", 0.05),
                                         ("strict", 0.002)])
def test_oracle_estimates_match_realized_fragments(n, profile, eps):
    # the eigenbasis kernel at every schedule level against
    # |identity_coeff(realize)|^2 of the fragment compiled with H0
    config = CertConfig(eps=eps, delta=0.1, c_op=2.0, profile=profile)
    prof = config.profile
    steps = []
    for far in (False, True):
        h0, h = certifier_instance(np.random.SeedSequence((32, n, far)), n, eps, far)
        (w0, v0), (w, v) = h0.spectrum(), h.spectrum()
        m = (v.conj().T @ v0)[None]
        for lvl in config.levels:
            [mine] = eigenbasis_identity_sq(m, w0[None], w[None], lvl.fragment)
            frag = trotter_compile(h0, prof.time_for(lvl.eps), prof.eps_trott, config.c_op)
            assert (frag.steps, frag.query_time) == (lvl.fragment.steps, lvl.fragment.query_time)
            ref = abs(identity_coeff(frag.realize(h))) ** 2
            assert abs(mine - ref) <= step_tolerance(frag.steps, n)
            steps.append(frag.steps)
    if profile == "strict" and eps == 0.002:
        assert max(steps) > 1900


def test_strict_time_bound_is_the_schedule_charge():
    config = CertConfig(eps=0.05, delta=0.1, c_op=2.0, profile="strict")
    bound = evolution_time_bound(config)
    # the compiled levels' charge is sum_l m_l t_l, float for float
    prof = config.profile
    assert bound == math.fsum(sample_count(prof.est_accuracy, delta_l) * prof.time_for(eps_l)
                              for _, eps_l, delta_l in uncompiled_schedule(0.05, 0.1))
    totals = {}
    for far in (False, True):
        h0, h = certifier_instance(np.random.SeedSequence((33, far)), 2, 0.05, far)
        report = certify_trial(h0, h, config, 3)
        assert report.verdict == (FAR if far else CLOSE)
        totals[far] = report.ledger["total_evolution_time"]
    # a CLOSE run charges every level, a FAR run stops early
    assert totals[False] == pytest.approx(bound, rel=1e-12)
    assert totals[True] <= bound
    # the calibrated bound is the shipped closed form
    cal = CertConfig(eps=0.05, delta=0.1, c_op=2.0)
    assert evolution_time_bound(cal) == \
        con.EVOLUTION_TIME_CONSTANT * math.log(1 / 0.005) / 0.05


def test_evolution_time_constant_bounds_the_charge():
    # a calibrated CLOSE run charges every level of its schedule, so the
    # constant c of c ln(C_F / (eps delta)) / eps follows from the compile;
    # over this grid c runs from 236 (eps 0.1, delta 0.1) to 439 (eps 0.01,
    # delta 0.01), and the shipped 800 is 1.8x the largest
    constants = []
    for eps in (0.1, 0.05, 0.025, 0.01, 0.002):
        for delta in (0.1, 0.01):
            config = CertConfig(eps=eps, delta=delta)
            ledger = ExperimentLedger()
            for lvl in config.levels:
                charge_plan((lvl.fragment,), ledger, repeat=lvl.samples)
            constants.append(ledger.total_evolution_time * eps / math.log(1 / (eps * delta)))
    assert max(constants) * 1.8 <= con.EVOLUTION_TIME_CONSTANT


def test_budget_overrun_at_any_level_raises_before_any_draw():
    # c_op = 6500 gives level 0 (eps 0.05) 1.14e7 Trotter steps, over the 1e7
    # budget; levels 5..1 need at most 8.2e6
    prof = PROFILES["calibrated"]
    schedule = uncompiled_schedule(0.05, 0.1)
    assert [level for level, _, _ in schedule] == [5, 4, 3, 2, 1, 0]
    for _, eps_l, _ in schedule[:-1]:
        assert trotter_compile(None, prof.time_for(eps_l), prof.eps_trott, 6500.0).steps <= 8.2e6
    # compiled level by level, the far arm stops at FAR before level 0
    h0, h = certifier_instance(np.random.SeedSequence((40, 0)), 2, 0.05, True)
    literal = certify_literal(h0, h, SimpleNamespace(eps=0.05, delta=0.1, c_op=6500.0,
                                                     c_frob=1.0, profile=prof), 3)
    assert literal.verdict == FAR and literal.levels[-1].level > 0
    # the config compiles every level, so it refuses the run before any draw
    with pytest.raises(BudgetExceededError, match="fragment needs"):
        CertConfig(eps=0.05, delta=0.1, c_op=6500.0)


def assert_task_equals_per_trial_reference(n, arm, profile, seed, trials, eps=0.05, delta=0.1):
    """Every trial of one `certify-dynamics` block against the literal
    per-level run on its own instance, both sampled; returns the number of
    levels each trial ran.  At strict's m of about 2.6e14 a hit count
    resolves p to 1e-14, so realize's last bits can move it: strict
    estimates agree within the kernel's step tolerance, the rest is equal."""
    params = {**tasks.TASKS["certify-dynamics"].params, "n": n, "arm": arm, "profile": profile,
              "eps": eps, "delta": delta}
    payload, tables = tasks.run_task({"task": "certify-dynamics", "seed": seed, "trials": trials,
                                      "params": params})
    config = CertConfig(eps=eps, delta=delta, c_op=2.0, profile=profile)
    stops = []
    for record in payload["trials"]:
        t = record["trial"]
        h0, h = certifier_instance(trial_rng(seed, t, 1), n, eps, arm == "far")
        literal = certify_literal(h0, h, config, trial_rng(seed, t))
        assert (record["verdict"], record["ledger"]) == (literal.verdict, literal.ledger)
        rows = [row[1:] for row in tables["levels"][1] if row[0] == t]
        assert len(rows) == len(literal.levels)
        for row, ref in zip(rows, literal.levels):
            # the fields every trial shares are rendered text, as the CSV writes them
            mine, ref = dict(zip(ref._fields, row)), ref._asdict()
            if profile == "strict":
                tol = step_tolerance(ref["trotter_steps"], n)
                assert abs(mine.pop("estimate") - ref.pop("estimate")) <= tol
            assert mine == {k: v if k == "estimate" else str(v) for k, v in ref.items()}
        stops.append(len(rows))
    return stops


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("arm", ["close", "far"])
def test_task_blocks_equal_per_trial_reference(n, arm):
    for profile in ("calibrated", "strict"):
        assert_task_equals_per_trial_reference(n, arm, profile, seed=8, trials=4)


@pytest.mark.parametrize("n", [2, 3])
def test_task_trials_with_different_stops_equal_per_trial_reference(n):
    # at delta 0.9 a few far trials say FAR one level early (seed 15: trial 1
    # at n = 3, trials 1 and 6 at n = 2), so the block holds two stop levels,
    # each with its own ledger snapshot and rows
    stops = assert_task_equals_per_trial_reference(n, "far", "calibrated", seed=15, trials=8,
                                                   eps=0.07, delta=0.9)
    assert len(set(stops)) == 2


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("profile", ["calibrated", "strict"])
def test_estimate_at_the_threshold_stops_the_trial_as_far(n, profile, monkeypatch):
    # a tie is FAR: estimates exactly at the threshold at level index `tie`
    # stop every trial there, and their level rows end with that FAR
    threshold, tie, calls = PROFILES[profile].far_threshold, 2, []

    def drawn(identity_sq, n, m, rngs):
        calls.append(m)
        values = np.full(len(identity_sq), threshold if len(calls) == tie + 1 else 1.0)
        return values, values

    monkeypatch.setattr(certifier, "drawn_estimate", drawn)
    monkeypatch.setattr(oracle, "stack_size", lambda *args: 3)   # one block
    params = {**tasks.TASKS["certify-dynamics"].params, "n": n, "profile": profile}
    payload, tables = tasks.run_task({"task": "certify-dynamics", "seed": 4, "trials": 3,
                                      "params": params})
    levels = CertConfig(eps=params["eps"], delta=params["delta"], c_op=params["c_op"],
                        profile=profile).levels
    assert len(levels) > tie + 1 and len(calls) == tie + 1
    assert decide(threshold, threshold) == FAR
    assert [record["verdict"] for record in payload["trials"]] == [FAR] * 3
    for t in range(3):
        rows = [row for row in tables["levels"][1] if row[0] == t]
        assert [row[1] for row in rows] == [str(lvl.level) for lvl in levels[:tie + 1]]
        assert [row[6] for row in rows] == [CLOSE] * tie + [FAR]
        assert rows[-1][4] == threshold


def test_block_raises_each_trial_only_to_its_stop(monkeypatch):
    # far trials at growing gaps say FAR at earlier levels: each level raises
    # the steps of the trials still running, and no level runs after the last FAR
    config = CertConfig(eps=0.05, delta=0.1, c_op=2.0)
    levels = config.levels
    h0 = random_fixed_norm(2, 2, 50, 0.3)
    direction = random_fixed_norm(2, 2, 51, 1.0)
    hams = [hamiltonian_sum(h0, direction.scaled(gap)) for gap in (0.6, 1.2, 0.9, 0.6)]
    pairs = [(h0.spectrum(), h.spectrum()) for h in hams]
    spectra = [np.array([pair[k][i] for pair in pairs]) for k in (0, 1) for i in (0, 1)]
    calls = []
    power = np.linalg.matrix_power

    def counted(a, steps):
        calls.append((len(a), steps))
        return power(a, steps)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    results = certify_block(spectra, config, [np.random.default_rng(i) for i in range(4)])
    stops = [len(estimates) for estimates in results]
    threshold = config.profile.far_threshold
    assert decide([estimates[-1] for estimates in results], threshold) == [FAR] * 4
    assert len(set(stops)) > 1 and max(stops) < len(levels)
    assert calls == [(sum(stop > j for stop in stops), levels[j].fragment.steps)
                     for j in range(max(stops))]
    monkeypatch.undo()
    for i, (h, estimates) in enumerate(zip(hams, results)):
        literal = certify_literal(h0, h, config, np.random.default_rng(i))
        records = level_records(levels, estimates, threshold)
        ledger = charged_snapshot(levels, len(estimates))
        assert CertReport(records[-1].verdict, records, ledger) == literal


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("profile", ["calibrated", "strict"])
@pytest.mark.parametrize("arm", ["close", "far"])
def test_each_trial_is_charged_the_levels_it_ran(n, profile, arm, tmp_path):
    # a report's ledger against its own `levels` rows: a trial is charged one
    # experiment per sample and 2 queries per Trotter step of each, at every
    # level it ran, including the one it stopped at
    for seed in (1, 7, 42):
        out_dir = tmp_path / str(seed)
        config = tmp_path / f"{seed}.json"
        config.write_text(json.dumps({"schema_version": 1, "task": "certify-dynamics",
                                      "seed": seed, "trials": 4,
                                      "params": {"n": n, "arm": arm, "profile": profile}}))
        assert main(["--config", str(config), "--out", str(out_dir)]) == EXIT_OK
        report = json.loads((out_dir / f"certify-dynamics_{arm}.json").read_text())
        with open(out_dir / f"certify-dynamics_{arm}_levels.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for record in report["trials"]:
            ran = [(int(row["samples"]), int(row["trotter_steps"])) for row in rows
                   if int(row["trial"]) == record["trial"]]
            assert ran
            assert record["ledger"]["experiment_count"] == sum(m for m, _ in ran)
            assert record["ledger"]["query_count"] == sum(2 * steps * m for m, steps in ran)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("arm", ["close", "far"])
def test_charge_plan_experiments_equal_the_ledgers(n, arm, monkeypatch):
    # the invariant the traced benchmark run checks: the `repeat` sum over the
    # `charge_plan` calls of a run is the experiment count its ledgers report
    repeats = []
    charge_plan = tasks.charge_plan

    def counted(steps, ledger, repeat=1):
        repeats.append(repeat)
        return charge_plan(steps, ledger, repeat)

    monkeypatch.setattr(tasks, "charge_plan", counted)
    payload, _ = tasks.run_task({"task": "certify-dynamics", "seed": 3, "trials": 6,
                                 "params": {"n": n, "arm": arm}})
    assert repeats
    assert sum(repeats) == sum(r["ledger"]["experiment_count"] for r in payload["trials"])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("profile", ["calibrated", "strict"])
@pytest.mark.parametrize("arm", ["close", "far"])
def test_task_reports_equal_in_blocks_of_one_and_in_one_block(n, profile, arm, monkeypatch):
    # 7 trials as 7 blocks of one and as one block of 7
    config = {"task": "certify-dynamics", "seed": 12, "trials": 7,
              "params": {"n": n, "arm": arm, "profile": profile}}
    texts = []
    for size in (1, 7):
        monkeypatch.setattr(oracle, "stack_size", lambda *args, size=size: size)
        payload, tables = tasks.run_task(config)
        texts.append([canonical_json(payload),
                      *(csv_text(*tables[name]) for name in ("levels", "verdicts"))])
    assert texts[0] == texts[1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_trace_kernel_invariant_under_local_cliffords(n):
    # conjugating H0 and H by one local Clifford C takes every level's V to
    # C V C^dag, so |Tr V / 2^n|^2 stays; measured differences are at most
    # 2e-12 over 689 steps, and one flipped sign moves them by >= 2.7e-4
    levels = CertConfig(eps=0.01, delta=0.1, c_op=2.0).levels
    assert len(levels) == 13 and max(lvl.fragment.steps for lvl in levels) == 689
    paulis = enumerate_local_paulis(n, 2, include_identity=False)

    def identity_sq(h0, h):   # (levels, rows)
        w, v = hermitian_eig(pauli_sum_matrix(n, paulis, np.concatenate([h0, h])))
        m = np.swapaxes(v[len(h):].conj(), -1, -2) @ v[:len(h)]   # W^dag W0 of each row
        return np.array([eigenbasis_identity_sq(m, w[:len(h)], w[len(h):], lvl.fragment)
                         for lvl in levels])

    # three instances of each arm, each conjugated by its own C
    h0, h = (np.concatenate(rows) for rows in zip(*(
        tasks.certifier_coeffs([np.random.default_rng((1500, n, t)) for t in range(3)],
                               range(3), n, gap, 1.0)[:2] for gap in (0.01, 12.0 * 0.01))))
    rng = np.random.default_rng(1500 + n)
    images = np.array([local_clifford_rows(np.stack(pair), n, rng) for pair in zip(h0, h)])
    difference = identity_sq(images[:, 0], images[:, 1]) - identity_sq(h0, h)
    assert np.abs(difference).max() <= 1e-10
