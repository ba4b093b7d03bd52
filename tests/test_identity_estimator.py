import math

import numpy as np
import pytest

from access_reference import (
    enumerate_stabilizer_states,
    estimate_identity_sq_literal,
    sample_stabilizer_state,
    single_query_plan,
)
from isingcert.dynamics import (
    ExperimentLedger,
    NoiseModel,
    QueryStep,
    charge_plan,
    trotter_compile,
)
from isingcert.hamiltonians import LocalHamiltonian, random_hamiltonian
from isingcert.identity_estimator import (
    design_expectation,
    estimate_identity_sq,
    exact_indicator_expectation,
    make_single_query_factory,
    sample_count,
)
from isingcert.oracle import evolve, identity_coeff
from isingcert.paulis import PauliString, pauli_sum_matrix

P = PauliString.from_label
HZ = LocalHamiltonian(1, 1, {P("Z"): 1.0})


def haar_unitary(n, rng):
    dim = 2**n
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_sample_count_formula():
    m = sample_count(0.05, 0.05)
    assert m == math.ceil(8 * math.log(2 / 0.05) / 0.05**2)
    with pytest.raises(ValueError):
        sample_count(0.0, 0.1)
    with pytest.raises(ValueError):
        sample_count(0.1, 1.0)
    # ln(2 / delta) past the float range, where math.ceil(inf) would raise OverflowError
    with pytest.raises(ValueError, match="sample count past the float range"):
        sample_count(0.1, 1e-311)


def test_exact_expectation_pauli_x():
    # over the six single-qubit states: only |+> and |-> survive X
    x = pauli_sum_matrix(1, [P("X")], [1.0])
    assert exact_indicator_expectation(x, 1) == pytest.approx(1 / 3)
    est_mean = design_expectation(0.0, 1)
    assert (1 + 0.5) * (1 / 3) - 0.5 == pytest.approx(0.0)
    assert est_mean == pytest.approx(1 / 3)


def test_exact_expectation_z_rotation():
    theta = 0.7
    u = evolve(HZ, theta)
    expected = (2 + 4 * math.cos(theta) ** 2) / 6
    assert exact_indicator_expectation(u, 1) == pytest.approx(expected, abs=1e-12)
    # debiasing returns cos^2 theta
    mean = exact_indicator_expectation(u, 1)
    assert (1 + 0.5) * mean - 0.5 == pytest.approx(math.cos(theta) ** 2, abs=1e-12)


def test_unbiasedness_random_unitaries():
    # exact enumeration average equals the 2-design formula, n in {1, 2}
    rng = np.random.default_rng(20)
    for n in (1, 2):
        for _ in range(10):
            u = haar_unitary(n, rng)
            target = design_expectation(abs(identity_coeff(u)) ** 2, n)
            assert exact_indicator_expectation(u, n) == pytest.approx(target, abs=1e-10)


def test_identity_unitary_estimates_one_exactly():
    # H = 0 evolves to the identity exactly
    fac = make_single_query_factory((QueryStep(1.0),), 1)
    est = estimate_identity_sq(fac, LocalHamiltonian(1, 1, {}), 1, 0.3, 0.2,
                               np.random.default_rng(0))
    assert est.value == 1.0
    assert est.raw_value == 1.0


def test_estimate_range_and_clamp():
    # exp(-i (pi/2) X) = -i X, whose identity coefficient vanishes
    fac = make_single_query_factory((QueryStep(math.pi / 2),), 1)
    est = estimate_identity_sq(fac, LocalHamiltonian(1, 1, {P("X"): 1.0}), 1, 0.1, 0.1,
                               np.random.default_rng(1))
    assert -0.5 - 1e-12 <= est.raw_value <= 1.5 + 1e-12
    assert 0.0 <= est.value <= 1.0
    assert est.value == pytest.approx(0.0, abs=0.1)


def test_sampled_estimator_accuracy():
    theta = 1.1
    fac = make_single_query_factory((QueryStep(theta),), 1)
    est = estimate_identity_sq(fac, HZ, 1, 0.05, 0.05, np.random.default_rng(2))
    assert abs(est.value - math.cos(theta) ** 2) <= 0.05


def test_plan_path_matches_batched_path_in_distribution():
    theta = 0.8
    fac = make_single_query_factory((QueryStep(theta),), 1)
    led_a, led_b = ExperimentLedger(), ExperimentLedger()
    batched = estimate_identity_sq(fac, HZ, 1, 0.15, 0.1, np.random.default_rng(3))
    charge_plan(fac, led_a, repeat=batched.samples_used)
    plans = estimate_identity_sq_literal(fac, HZ, 1, 0.15, 0.1, np.random.default_rng(3), led_b)
    # same protocol, same ledger costs, both near truth
    assert led_a.snapshot() == led_b.snapshot()
    truth = math.cos(theta) ** 2
    assert abs(batched.value - truth) <= 0.15
    assert abs(plans.value - truth) <= 0.15


def test_memorylessness_structure():
    # one logical query per experiment, no ancillas on any emitted plan
    frag_steps = (QueryStep(0.4),)
    fac = make_single_query_factory(frag_steps, 2)
    for state in enumerate_stabilizer_states(2)[:8]:
        plan = single_query_plan(fac, state)
        assert plan.logical_queries() == 1
        assert plan.n == 2
        assert plan.measurement == "stabilizer"


def test_ledger_charges_every_experiment():
    # the estimator charges nothing itself: its caller charges samples_used runs
    fac = make_single_query_factory((QueryStep(0.4),), 1)
    ledger = ExperimentLedger()
    est = estimate_identity_sq(fac, HZ, 1, 0.2, 0.2, np.random.default_rng(5))
    assert ledger.snapshot()["experiment_count"] == 0
    charge_plan(fac, ledger, repeat=est.samples_used)
    snap = ledger.snapshot()
    assert snap["experiment_count"] == est.samples_used
    assert snap["query_count"] == est.samples_used
    assert snap["total_evolution_time"] == pytest.approx(0.4 * est.samples_used)


def test_concentration_over_repeated_runs():
    # misses of more than eps in at most a 5% + 3 sigma fraction of runs
    eps = delta = 0.05
    runs = 200
    theta = 0.6
    truth = math.cos(theta) ** 2
    fac = make_single_query_factory((QueryStep(theta),), 1)
    rng = np.random.default_rng(30)
    misses = 0
    for _ in range(runs):
        est = estimate_identity_sq(fac, HZ, 1, eps, delta, rng)
        misses += abs(est.value - truth) > eps
    limit = delta * runs + 3 * math.sqrt(runs * delta * (1 - delta))
    assert misses <= limit


def test_spam_robustness_empirical():
    # eps/3 of SPAM still leaves the total error within eps
    eps = 0.1
    theta = 0.5
    truth = math.cos(theta) ** 2
    noise = NoiseModel(spam_diamond_budget=eps / 3)
    fac = make_single_query_factory((QueryStep(theta),), 1)
    rng = np.random.default_rng(31)
    misses = 0
    runs = 60
    for _ in range(runs):
        est = estimate_identity_sq(fac, HZ, 1, eps, 0.05, rng, noise=noise)
        misses += abs(est.value - truth) > eps
    assert misses <= 0.05 * runs + 3 * math.sqrt(runs * 0.05 * 0.95)


def test_two_qubit_sampled_run():
    h = LocalHamiltonian(2, 2, {P("ZZ"): 0.6})
    t = 0.7
    truth = abs(identity_coeff(evolve(h, t))) ** 2
    fac = make_single_query_factory((QueryStep(t),), 2)
    est = estimate_identity_sq(fac, h, 2, 0.05, 0.05, np.random.default_rng(8))
    assert abs(est.value - truth) <= 0.05


def _shared_fragment_case(n):
    rng = np.random.default_rng(40 + n)
    h = random_hamiltonian(n, 2, rng).scaled(0.3)
    h0 = random_hamiltonian(n, 2, rng).scaled(0.3)
    frag = trotter_compile(h0, 0.7, 1e-2, 2.0)
    noise = NoiseModel(spam_diamond_budget=0.04, per_query_diamond_budget=0.02)
    return h, frag, noise


@pytest.mark.parametrize("n", [2, 3])
def test_exact_law_matches_plan_path(n):
    h, frag, noise = _shared_fragment_case(n)
    fac = make_single_query_factory((frag,), n)
    eps, delta, seeds = 0.4, 0.3, 20
    raws = {"auto": [], "plans": []}
    for seed in range(seeds):
        ledgers = {method: ExperimentLedger() for method in raws}
        est = estimate_identity_sq(fac, h, n, eps, delta, np.random.default_rng(seed),
                                   noise=noise)
        charge_plan(fac, ledgers["auto"], repeat=est.samples_used)
        raws["auto"].append(est.raw_value)
        est = estimate_identity_sq_literal(fac, h, n, eps, delta, np.random.default_rng(seed),
                                           ledgers["plans"], noise=noise)
        raws["plans"].append(est.raw_value)
        assert ledgers["auto"].snapshot() == ledgers["plans"].snapshot()
    # both means estimate the same quantity; sigma from the exact hit law
    dim = 2**n
    retain = noise.retain_factor(n, 1)
    identity_sq = abs(identity_coeff(frag.realize(h))) ** 2
    p = retain * design_expectation(identity_sq, n) + (1 - retain) / dim
    m = sample_count(eps, delta)
    sigma_raw = (1 + 1 / dim) * math.sqrt(p * (1 - p) / m)
    sigma_diff = sigma_raw * math.sqrt(2 / seeds)
    assert abs(np.mean(raws["auto"]) - np.mean(raws["plans"])) <= 4 * sigma_diff


def test_sampled_stabilizer_states_match_design_n3():
    # the exact law rests on the 2-design property; n = 3 has no enumeration
    n, draws = 3, 2000
    h, frag, _ = _shared_fragment_case(n)
    u = frag.realize(h)
    rng = np.random.default_rng(43)
    vals = np.empty(draws)
    for i in range(draws):
        v = sample_stabilizer_state(n, rng).vector
        vals[i] = abs(np.vdot(v, u @ v)) ** 2
    target = design_expectation(abs(identity_coeff(u)) ** 2, n)
    assert abs(vals.mean() - target) <= 4 * vals.std(ddof=1) / math.sqrt(draws)
