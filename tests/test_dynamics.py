import math

import numpy as np
import pytest

from access_reference import (
    ExperimentPlan,
    enumerate_stabilizer_states,
    outcome_distribution,
    run_experiment,
)
from isingcert import dynamics
from isingcert.dynamics import (
    NO_NOISE,
    ExperimentLedger,
    NoiseModel,
    QueryStep,
    TrotterFragment,
    charge_plan,
    diamond_to_depolarizing,
    trotter_compile,
)
from isingcert.errors import BudgetExceededError
from isingcert.hamiltonians import LocalHamiltonian, random_hamiltonian
from isingcert.oracle import evolve, evolve_matrix, operator_norm_distance
from isingcert.paulis import PauliString

P = PauliString.from_label
HZ = LocalHamiltonian(1, 1, {P("Z"): 1.0})
PLUS = np.array([1, 1]) / math.sqrt(2)
XBASIS = np.column_stack([np.array([1, 1]) / math.sqrt(2), np.array([1, -1]) / math.sqrt(2)])


def test_no_query_plan_deterministic_outcome():
    zero = np.array([1.0, 0.0])
    plan = ExperimentPlan(zero, (), "computational")
    probs = outcome_distribution(plan, HZ)
    np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)
    assert run_experiment(plan, HZ, NO_NOISE, np.random.default_rng(0)) == 0


def test_rabi_probability():
    t = 0.41
    plan = ExperimentPlan(PLUS, (QueryStep(t),), XBASIS)
    probs = outcome_distribution(plan, HZ)
    assert probs[0] == pytest.approx(math.cos(t) ** 2, abs=1e-12)


def test_ledger_accounting_example():
    plan = ExperimentPlan(PLUS, (QueryStep(0.2),), XBASIS)
    ledger = ExperimentLedger()
    rng = np.random.default_rng(1)
    for _ in range(3):
        run_experiment(plan, HZ, NO_NOISE, rng, ledger)
    snap = ledger.snapshot()
    assert snap["total_evolution_time"] == pytest.approx(0.6, abs=1e-15)
    assert snap["query_count"] == 3
    assert snap["min_query_time"] == 0.2
    assert snap["experiment_count"] == 3


def test_ledger_monotone_and_inverse_queries_charge_abs():
    ledger = ExperimentLedger()
    ledger.charge_queries(1, -0.3)
    assert ledger.total_evolution_time == pytest.approx(0.3)
    before = ledger.total_evolution_time
    ledger.charge_queries(2, 0.1)
    assert ledger.total_evolution_time > before


def test_plan_validation():
    bad_state = np.array([1.0, 1.0])  # not normalized
    plan = ExperimentPlan(bad_state, (), "computational")
    with pytest.raises(ValueError):
        outcome_distribution(plan, HZ)
    bad_basis = np.array([[1.0, 1.0], [0.0, 1.0]])
    plan2 = ExperimentPlan(PLUS, (), bad_basis)
    with pytest.raises(ValueError):
        outcome_distribution(plan2, HZ)
    with pytest.raises(ValueError):
        QueryStep(0.0)


def test_determinism_with_fixed_seed():
    plan = ExperimentPlan(PLUS, (QueryStep(0.9),), XBASIS)
    a = [run_experiment(plan, HZ, NO_NOISE, np.random.default_rng(42)) for _ in range(20)]
    b = [run_experiment(plan, HZ, NO_NOISE, np.random.default_rng(42)) for _ in range(20)]
    assert a == b


def test_depolarizing_mixes_toward_uniform():
    plan = ExperimentPlan(np.array([1.0, 0.0]), (), "computational")
    noise = NoiseModel(spam_diamond_budget=0.3)
    probs = outcome_distribution(plan, HZ, noise)
    lam = diamond_to_depolarizing(0.15, 1)
    retain = (1 - lam) ** 2
    np.testing.assert_allclose(probs, [retain + (1 - retain) / 2, (1 - retain) / 2],
                               atol=1e-12)


def test_diamond_conversion_roundtrip():
    lam = diamond_to_depolarizing(0.12, 2)
    assert 2 * lam * (1 - 0.25**2) == pytest.approx(0.12)
    with pytest.raises(ValueError):
        diamond_to_depolarizing(10.0, 1)
    with pytest.raises(ValueError):
        NoiseModel(spam_diamond_budget=-0.1)


def test_trotter_h0_zero_is_exact():
    h0 = LocalHamiltonian(1, 1, {})
    hx = LocalHamiltonian(1, 1, {P("X"): 1.0})
    frag = trotter_compile(h0, 0.7, 1e-4, 1.0)
    assert operator_norm_distance(frag.realize(hx), evolve(hx, 0.7)) < 1e-12


def test_trotter_commuting_case_is_exact():
    h0 = LocalHamiltonian(2, 2, {P("ZI"): 0.4})
    h = LocalHamiltonian(2, 2, {P("ZI"): 0.9, P("IZ"): 0.2})
    frag = trotter_compile(h0, 0.5, 1e-3, 2.0)
    target = evolve_matrix(h.to_matrix() - h0.to_matrix(), 0.5)
    assert operator_norm_distance(frag.realize(h), target) < 1e-10


def test_trotter_error_bound_random_pairs():
    rng = np.random.default_rng(10)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        h = random_hamiltonian(n, 2, rng)
        h0 = random_hamiltonian(n, 2, rng)
        h = h.scaled(0.9 / h.operator_norm())
        h0 = h0.scaled(0.9 / h0.operator_norm())
        t = float(rng.uniform(0.1, 1.0))
        for eps in (1e-3, 1e-5):
            frag = trotter_compile(h0, t, eps, 0.9)
            target = evolve_matrix(h.to_matrix() - h0.to_matrix(), t)
            assert operator_norm_distance(frag.realize(h), target) <= eps


def test_trotter_fragment_cost_and_budget(monkeypatch):
    h0 = LocalHamiltonian(1, 1, {P("Z"): 0.5})
    frag = trotter_compile(h0, 0.8, 1e-3, 1.0)
    assert frag.query_count * frag.query_time == pytest.approx(0.8)
    assert frag.query_count == 2 * frag.steps
    assert frag.query_time == pytest.approx(0.8 / (2 * frag.steps))
    monkeypatch.setattr(dynamics, "TROTTER_STEP_BUDGET", 1000)
    with pytest.raises(BudgetExceededError, match="over the budget 1000"):
        trotter_compile(h0, 1.0, 1e-18, 1.0)
    with pytest.raises(ValueError):
        trotter_compile(h0, -1.0, 1e-3, 1.0)


def test_fragment_charging_through_plans():
    h0 = LocalHamiltonian(1, 1, {P("Z"): 0.5})
    frag = trotter_compile(h0, 0.8, 1e-3, 1.0)
    state = enumerate_stabilizer_states(1)[2]
    plan = ExperimentPlan(state, (frag,), "stabilizer")
    assert plan.logical_queries() == 1
    ledger = ExperimentLedger()
    run_experiment(plan, HZ, NO_NOISE, np.random.default_rng(3), ledger)
    snap = ledger.snapshot()
    assert snap["query_count"] == frag.query_count
    assert snap["total_evolution_time"] == pytest.approx(0.8)
    assert snap["min_query_time"] == pytest.approx(frag.query_time)


def test_stabilizer_measurement_probabilities_sum():
    state = enumerate_stabilizer_states(2)[41]
    plan = ExperimentPlan(state, (QueryStep(0.3),), "stabilizer")
    h = random_hamiltonian(2, 2, 4)
    probs = outcome_distribution(plan, h)
    assert probs.shape == (4,)
    assert probs.sum() == pytest.approx(1.0)


def test_batched_charge_equals_repeated_single_charges():
    # a non-dyadic query time makes a float running sum drift from one multiply
    frag = TrotterFragment(LocalHamiltonian(1, 1, {P("Z"): 0.5}), 0.7, 3)
    plan = ExperimentPlan(enumerate_stabilizer_states(1)[0], (frag, QueryStep(0.3)),
                          "stabilizer")
    m = 1000
    led_a, led_b = ExperimentLedger(), ExperimentLedger()
    charge_plan(plan.steps, led_a, repeat=m)
    for _ in range(m):
        charge_plan(plan.steps, led_b)
    assert led_a.snapshot() == led_b.snapshot()
    assert led_a.query_count == m * (frag.query_count + 1)
    assert led_a.min_query_time == frag.query_time


def test_net_unitary_runs_the_first_step_first():
    # H does not commute with the fragment's H0, so the product's order shows
    frag = TrotterFragment(LocalHamiltonian(1, 1, {P("Z"): 0.5}), 0.7, 3)
    h = LocalHamiltonian(1, 1, {P("X"): 0.8, P("Z"): 0.3})
    u = dynamics.net_unitary((frag, QueryStep(0.3)), h, 1)
    np.testing.assert_array_equal(u, evolve(h, 0.3) @ frag.realize(h))


def test_outcome_distribution_rejects_non_psd_state():
    plan = ExperimentPlan(np.diag([1.5, -0.5]).astype(complex), (), "computational")
    with pytest.raises(ValueError, match="PSD"):
        outcome_distribution(plan, HZ)
    # rounding-level negative mass is clipped, as before
    plan = ExperimentPlan(np.diag([1.0 + 1e-14, -1e-14]).astype(complex), (), "computational")
    np.testing.assert_array_equal(outcome_distribution(plan, HZ), [1.0, 0.0])
