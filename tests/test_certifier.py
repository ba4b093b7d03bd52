import math

import numpy as np
import pytest

from isingcert import constants as con
from isingcert import oracle
from isingcert.calibration import certifier_instance
from isingcert.certifier import (
    CLOSE,
    FAR,
    CertConfig,
    IterationSchedule,
    calibrated_profile,
    certify,
    certify_subroutine,
    decide,
    evolution_time_bound,
    strict_profile,
)
from isingcert.dynamics import ExperimentLedger
from isingcert.errors import BudgetExceededError
from isingcert.hamiltonians import LocalHamiltonian, hamiltonian_diff, random_hamiltonian
from isingcert.oracle import evolve_matrix, hermitian_eig, identity_coeff
from isingcert.paulis import PauliString

P = PauliString.from_label

E6C2 = math.exp(6.0) * con.SERIES_TAIL_SUM**2


def test_strict_constants_closed_forms():
    prof = strict_profile()
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
    thr = strict_profile().far_threshold
    unit = 1 / (2400 * E6C2)
    assert decide(1 - 24 / (2400 * E6C2), thr) == FAR
    assert decide(1 - 2 / (2400 * E6C2), thr) == CLOSE
    assert decide(thr - unit, thr) == FAR
    assert decide(thr + unit, thr) == CLOSE


def test_decision_rule_bit_exact():
    thr = calibrated_profile().far_threshold
    assert decide(thr, thr) == FAR           # boundary belongs to FAR
    assert decide(thr - 1e-12, thr) == FAR
    assert decide(thr + 1e-12, thr) == CLOSE


def test_schedule_example():
    sched = IterationSchedule(0.1, 0.1, 1.0)
    assert sched.big_l == 2
    eps_seq = [lvl[1] for lvl in sched.levels]
    assert eps_seq == pytest.approx([0.15625, 0.125, 0.1])
    for lvl in sched.levels:
        assert lvl[2] == pytest.approx(0.1 / 3)


def test_schedule_invariants():
    for eps, c_frob in ((0.05, 1.0), (0.02, 3.0), (0.3, 1.0)):
        sched = IterationSchedule(eps, 0.1, c_frob)
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


def test_strict_profile_sampled_run_is_refused():
    h0 = LocalHamiltonian(1, 1, {P("Z"): 0.2})
    h = LocalHamiltonian(1, 1, {P("Z"): 0.25})
    # refused under the default experiment budget, not only tightened ones
    config = CertConfig(eps=0.05, delta=0.1, profile="strict", estimator="sampled")
    with pytest.raises(BudgetExceededError):
        certify(h0, h, config, np.random.default_rng(0))
    # oracle substitution has no sampling, so no budget applies
    oracle_cfg = CertConfig(eps=0.05, delta=0.1, c_op=1.0, profile="strict",
                            estimator="oracle")
    report = certify(h0, h, oracle_cfg, np.random.default_rng(0))
    assert report.verdict in (CLOSE, FAR)


def test_strict_profile_oracle_verdicts():
    # oracle estimates with worst-case synthetic noise keep the guarantee
    rng = np.random.default_rng(7)
    prof = strict_profile()
    for far in (False, True):
        for seed in range(10):
            h0, h = certifier_instance(np.random.SeedSequence((seed, far)), 2, 0.02, far)
            eps = 0.02
            config = CertConfig(eps=eps, delta=0.1, c_op=2.0, c_frob=1.0,
                                profile="strict", estimator="oracle",
                                synthetic_noise=prof.est_accuracy)
            ledger = ExperimentLedger()
            verdict, record = certify_subroutine(h0, h, eps, 0.1, config, rng, ledger)
            gap = hamiltonian_diff(h, h0).frobenius_norm()
            if verdict == FAR:
                assert gap >= eps
            else:
                assert gap <= 12 * eps


def test_subroutine_trotter_error_within_profile():
    prof = calibrated_profile()
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
    prof = strict_profile()
    eps = 0.05
    t = prof.time_for(eps)
    for _ in range(10):
        d = random_hamiltonian(2, 2, rng, law="fixed_norm", frobenius=1.0)
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
            report = certify(h0, h, config, np.random.default_rng(seed))
            expected = FAR if far else CLOSE
            errors += report.verdict != expected
    assert errors == 0


def test_identical_hamiltonians_close():
    h0 = random_hamiltonian(2, 2, 3, law="fixed_norm", frobenius=0.5)
    config = CertConfig(eps=0.05, delta=0.1, c_op=2.0, c_frob=1.0)
    report = certify(h0, h0, config, np.random.default_rng(1))
    assert report.verdict == CLOSE
    assert len(report.levels) == len(IterationSchedule(0.05, 0.1, 1.0).levels)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_certify_diagonalizes_each_hamiltonian_once(n, monkeypatch):
    calls = []

    def counted(a, tol=1e-8):
        calls.append(a.shape)
        return hermitian_eig(a, tol)

    monkeypatch.setattr(oracle, "hermitian_eig", counted)
    levels = []
    for eps in (0.2, 0.05):   # one level, then six
        h0, h = certifier_instance(np.random.SeedSequence((30, n)), n, eps, False)
        calls.clear()
        report = certify(h0, h, CertConfig(eps=eps, delta=0.1, c_op=2.0), np.random.default_rng(n))
        assert calls == [(2**n, 2**n)] * 2
        levels.append(len(report.levels))
    assert levels == [1, 6]


def test_zero_gap_subroutine_monte_carlo():
    # 50 sampled subroutine calls on dH = 0 stay CLOSE in >= 90% of trials
    h0 = random_hamiltonian(2, 2, 4, law="fixed_norm", frobenius=0.5)
    config = CertConfig(eps=0.05, delta=0.1, c_op=2.0, c_frob=1.0)
    rng = np.random.default_rng(44)
    close = 0
    for _ in range(50):
        ledger = ExperimentLedger()
        verdict, _ = certify_subroutine(h0, h0, 0.05, 0.1, config, rng, ledger)
        close += verdict == CLOSE
    assert close >= 45


def test_far_perturbation_at_fourteen_epsilons():
    eps = 0.05
    h0 = random_hamiltonian(2, 2, 5, law="fixed_norm", frobenius=0.2)
    direction = random_hamiltonian(2, 2, 6, law="fixed_norm", frobenius=1.0)
    from isingcert.hamiltonians import hamiltonian_sum

    h = hamiltonian_sum(h0, direction.scaled(14.4 * eps))
    assert hamiltonian_diff(h, h0).frobenius_norm() == pytest.approx(14.4 * eps)
    config = CertConfig(eps=eps, delta=0.1, c_op=2.0, c_frob=1.0)
    wrong = 0
    for seed in range(10):
        report = certify(h0, h, config, np.random.default_rng(seed))
        wrong += report.verdict != FAR
    assert wrong == 0


def test_ledger_time_within_shipped_bound():
    config = CertConfig(eps=0.05, delta=0.1, c_op=2.0, c_frob=1.0)
    h0, h = certifier_instance(np.random.SeedSequence(11), 2, 0.05, False)
    report = certify(h0, h, config, np.random.default_rng(2))
    assert report.ledger["total_evolution_time"] <= evolution_time_bound(config)


def test_report_payload_complete():
    h0, h = certifier_instance(np.random.SeedSequence(12), 2, 0.05, False)
    config = CertConfig(eps=0.05, delta=0.1, c_op=2.0, c_frob=1.0)
    report = certify(h0, h, config, np.random.default_rng(3))
    assert report.verdict in (CLOSE, FAR)
    for level in report.levels:
        assert set(vars(level)) >= {"level", "eps", "delta", "estimate", "threshold",
                                    "verdict", "samples", "trotter_steps"}
    assert report.ledger["total_evolution_time"] > 0
