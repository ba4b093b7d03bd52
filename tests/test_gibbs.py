import math

import numpy as np
import pytest

from hamiltonian_reference import net_member
from isingcert.gibbs import (
    GibbsCertConfig,
    GibbsLearnConfig,
    bound_diagnostics,
    certify_gibbs,
    degenerate_regime,
    learn_gibbs,
    scan_objective,
)
from isingcert.hamiltonians import (
    HamiltonianNet,
    LocalHamiltonian,
    gibbs_density,
    random_hamiltonian,
)
from isingcert.oracle import trace_distance
from isingcert.paulis import PauliString, enumerate_local_paulis, pauli_trace_inners
from isingcert.shadows import born_table, collect_shadows, estimate_paulis
from pauli_reference import local_clifford_rows

P = PauliString.from_label


def learn_exact(net, cfg, estimates):
    """`learn_gibbs` on given estimates, with the net's Gibbs table."""
    return learn_gibbs(estimates, net, cfg.beta, net.gibbs_coeff_matrix(cfg.beta))


def pairwise_objective(net, coeff_gaps):
    """Literal max over all member pairs; only for small nets."""
    f = net.values(np.arange(net.size)) @ coeff_gaps
    return float(np.max(f) - np.min(f))


def _learn_config(**kw):
    defaults = dict(n=2, k=2, beta=1.0, eps=0.3, delta=0.1,
                    support=(P("ZI"), P("IZ"), P("ZZ")), eta=0.25)
    defaults.update(kw)
    return GibbsLearnConfig(**defaults)


def test_learn_config_derivations():
    cfg = _learn_config(beta=2.0)
    assert cfg.eps_prime == pytest.approx(0.09 / (100 * 2.0 * 4))
    assert cfg.obs_accuracy == pytest.approx(0.09 / 2.0)
    assert cfg.per_pauli_accuracy == pytest.approx(cfg.obs_accuracy / (200 * 4))
    assert cfg.eta_nominal == pytest.approx(cfg.eps_prime / (200 * 2.0 * 4))
    assert cfg.eta_used == 0.25
    low = _learn_config(beta=0.5)
    assert low.eps_prime == pytest.approx(0.09 / (100 * 1.0 * 4))  # max(beta,1)


def test_scan_matches_literal_pairwise():
    net = HamiltonianNet((P("ZI"), P("IZ")), 0.5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        gaps = rng.normal(size=2)
        assert scan_objective(net, gaps) == pytest.approx(pairwise_objective(net, gaps),
                                                          abs=1e-12)


def test_on_grid_truth_with_exact_estimates_recovers_member():
    support = (P("ZI"), P("IZ"), P("ZZ"))
    net = HamiltonianNet(support, 0.25)
    cfg = _learn_config()
    rng = np.random.default_rng(1)
    for _ in range(10):
        truth_idx = int(rng.integers(net.size))
        rho = gibbs_density(net_member(net, truth_idx), 1.0)
        exact = pauli_trace_inners(support, rho).real
        [idx], [state], [objective] = learn_exact(net, cfg, exact[None])
        assert idx == truth_idx
        assert objective == pytest.approx(0.0, abs=1e-9)
        assert trace_distance(state, rho) < 1e-9


def test_single_member_net_returns_it():
    net = HamiltonianNet((P("Z"),), 2.0)  # grid {0} only
    assert net.size == 1
    cfg = GibbsLearnConfig(n=1, k=1, beta=1.0, eps=0.3, delta=0.1,
                           support=(P("Z"),), eta=2.0)
    [idx], _, _ = learn_exact(net, cfg, np.array([[0.73]]))
    assert idx == 0


def test_learn_single_qubit_sampled():
    support = (P("Z"),)
    net = HamiltonianNet(support, 0.25)
    cfg = GibbsLearnConfig(n=1, k=1, beta=1.0, eps=0.3, delta=0.1,
                           support=support, eta=0.25)
    truth = LocalHamiltonian(1, 1, {P("Z"): 0.5})
    rho = gibbs_density(truth, 1.0)
    table, member_coeffs = born_table(rho), net.gibbs_coeff_matrix(cfg.beta)
    hits = 0
    for seed in range(20):
        samples = collect_shadows(table, 4000, np.random.default_rng(seed), cfg.batches)
        estimates = estimate_paulis(samples[None], cfg.n, cfg.batches, support)
        _, [state], _ = learn_gibbs(estimates, net, cfg.beta, member_coeffs)
        hits += trace_distance(state, rho) <= 0.3
    assert hits >= 18


def test_learn_permutation_invariance_of_objective():
    # enumeration order only affects tie-breaking: the achieved min deviation
    # equals the global minimum over members, evaluated independently per
    # member, in any scan order
    support = (P("ZI"), P("IZ"), P("ZZ"))
    net = HamiltonianNet(support, 0.5)
    cfg = _learn_config(eta=0.5)
    rho = gibbs_density(random_hamiltonian(2, 2, 3), 1.0)
    est_vec = pauli_trace_inners(support, rho).real
    [idx], _, [objective] = learn_exact(net, cfg, est_vec[None])
    per_member = []
    for i in range(net.size):
        tau = gibbs_density(net_member(net, i), 1.0)
        gaps = est_vec - pauli_trace_inners(support, tau).real
        per_member.append(pairwise_objective(net, gaps))
    rng = np.random.default_rng(6)
    for _ in range(3):
        order = rng.permutation(net.size)
        assert min(per_member[i] for i in order) == pytest.approx(objective, abs=1e-12)
    assert per_member[idx] == pytest.approx(objective, abs=1e-12)
    assert all(per_member[i] > objective - 1e-12 for i in range(idx))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gibbs_table_invariant_under_local_cliffords(n):
    # a local Clifford C takes each support string P to sign_P P', so the
    # member with h_P on P and the member with sign_P h_P on P' have Gibbs
    # states rho and C rho C^dag, and Tr[P' C rho C^dag] = sign_P Tr[P rho].
    # The grid is symmetric, so that member is on the image net's grid, at
    # digit d or g - 1 - d.  At n = 2..4 the largest difference measured is
    # 1.6e-15
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    rng = np.random.default_rng((2320, n))
    # row i: the signed image of string i, from one C
    action = local_clifford_rows(np.eye(len(paulis)), n, rng)
    support = [P(label + "I" * (n - 2)) for label in ("YX", "ZZ", "IX")]
    targets = [int(np.abs(action[paulis.index(p)]).argmax()) for p in support]
    signs = np.array([action[paulis.index(p), t] for p, t in zip(support, targets)])
    net = HamiltonianNet(support, 0.5)
    image = HamiltonianNet([paulis[t] for t in targets], 0.5)
    g, weights = len(net.grid), len(net.grid) ** np.arange(len(support) - 1, -1, -1)
    digits = np.arange(net.size)[:, None] // weights % g
    rows = np.where(signs > 0, digits, g - 1 - digits) @ weights
    np.testing.assert_array_equal(image.values(rows), net.values(np.arange(net.size)) * signs)
    difference = image.gibbs_coeff_matrix(1.3)[rows] - net.gibbs_coeff_matrix(1.3) * signs
    assert np.abs(difference).max() <= 1e-12


def test_observable_match_chain_at_nominal_grid():
    # with exact estimates and the nominal grid, the best member's objective
    # stays within 3 eps^2 / max(beta, 1)
    eps, beta, n, k = 0.9, 0.1, 1, 1
    cfg = GibbsLearnConfig(n=n, k=k, beta=beta, eps=eps, delta=0.1, support=(P("Z"),))
    net = HamiltonianNet((P("Z"),), cfg.eta_nominal)
    rng = np.random.default_rng(4)
    for _ in range(5):
        truth = LocalHamiltonian(n, k, {P("Z"): float(rng.uniform(-1, 1))})
        rho = gibbs_density(truth, beta)
        exact = pauli_trace_inners([P("Z")], rho).real
        _, [state], [objective] = learn_exact(net, cfg, exact[None])
        assert objective <= 3 * eps**2 / max(beta, 1.0)
        assert trace_distance(state, rho) <= eps


def test_learn_accepts_beta_zero():
    # every member's Gibbs state is maximally mixed; the learner still runs
    cfg = GibbsLearnConfig(n=1, k=1, beta=0.0, eps=0.3, delta=0.1,
                           support=(P("Z"),), eta=0.5)
    assert cfg.eta_nominal == 1.0
    net = HamiltonianNet((P("Z"),), 0.5)
    _, [state], _ = learn_exact(net, cfg, np.array([[0.0]]))
    np.testing.assert_allclose(state, np.eye(2) / 2, atol=1e-12)


def test_cert_config_thresholds():
    cfg = GibbsCertConfig(n=2, k=2, beta=1.0, eps=0.3, delta=0.1)
    assert cfg.per_pauli_accuracy == pytest.approx(0.09 / 3200)
    assert cfg.far_threshold == pytest.approx(3 * 0.09 / 1600)
    assert cfg.close_promise == pytest.approx(0.09 / 1600)
    assert cfg.far_promise == pytest.approx(0.6)
    with pytest.raises(ValueError):
        GibbsCertConfig(n=2, k=2, beta=0.0, eps=0.3, delta=0.1)


def shadow_estimates(rho, m, seed, cfg):
    """One row of estimates of the weight <= k strings, from m samples of rho
    in the config's median-of-means batches."""
    samples = collect_shadows(born_table(rho), m, np.random.default_rng(seed), cfg.batches)
    return estimate_paulis(samples[None], cfg.n, cfg.batches, enumerate_local_paulis(cfg.n, cfg.k))


def test_certify_equal_states_same_seed_close():
    h = random_hamiltonian(2, 2, 5)
    rho = gibbs_density(h, 1.0)
    cfg = GibbsCertConfig(n=2, k=2, beta=1.0, eps=0.3, delta=0.1)
    a = shadow_estimates(rho, 5000, 77, cfg)
    b = shadow_estimates(rho, 5000, 77, cfg)
    [(verdict, max_gap)] = certify_gibbs(a, b, cfg.far_threshold)
    assert verdict == "CLOSE"
    assert max_gap == 0.0


def test_certify_far_states():
    hz = LocalHamiltonian(1, 1, {P("Z"): 1.0})
    hmz = LocalHamiltonian(1, 1, {P("Z"): -1.0})
    rho, rho0 = gibbs_density(hz, 1.0), gibbs_density(hmz, 1.0)
    assert trace_distance(rho, rho0) == pytest.approx(2 * math.tanh(1.0))
    cfg = GibbsCertConfig(n=1, k=1, beta=1.0, eps=0.3, delta=0.1)
    wrong = 0
    for seed in range(20):
        a = shadow_estimates(rho, 3000, (seed, 0), cfg)
        b = shadow_estimates(rho0, 3000, (seed, 1), cfg)
        [(verdict, _)] = certify_gibbs(a, b, cfg.far_threshold)
        wrong += verdict != "FAR"
    assert wrong == 0


def test_certify_known_reference_mode():
    hz = LocalHamiltonian(1, 1, {P("Z"): 1.0})
    hmz = LocalHamiltonian(1, 1, {P("Z"): -1.0})
    rho, rho0 = gibbs_density(hz, 1.0), gibbs_density(hmz, 1.0)
    cfg = GibbsCertConfig(n=1, k=1, beta=1.0, eps=0.3, delta=0.1)
    paulis = enumerate_local_paulis(1, 1)
    estimates = shadow_estimates(rho, 3000, 2, cfg)
    reference = pauli_trace_inners(paulis, rho0[None]).real
    [(verdict, max_gap)] = certify_gibbs(estimates, reference, cfg.far_threshold)
    assert verdict == "FAR"
    # the gap is attained on Z, where the two states differ
    z = paulis.index(P("Z"))
    assert max_gap == abs(estimates[0, z] - reference[0, z])


def test_certify_symmetry_under_swap():
    h = random_hamiltonian(2, 2, 8)
    h0 = random_hamiltonian(2, 2, 9)
    rho, rho0 = gibbs_density(h, 1.0), gibbs_density(h0, 1.0)
    cfg = GibbsCertConfig(n=2, k=2, beta=1.0, eps=0.3, delta=0.1)
    a = shadow_estimates(rho, 4000, 30, cfg)
    b = shadow_estimates(rho0, 4000, 31, cfg)
    [(v1, gap1)] = certify_gibbs(a, b, cfg.far_threshold)
    [(v2, gap2)] = certify_gibbs(b, a, cfg.far_threshold)
    assert v1 == v2
    assert gap1 == pytest.approx(gap2, abs=1e-14)


def test_degenerate_regime_distance_bound():
    # when the close promise exceeds the far promise, admissible states are
    # provably eps/2-close
    eps = 0.3
    n = k = 2
    beta = eps / (900.0 * n**k)
    cfg = GibbsCertConfig(n=n, k=k, beta=beta, eps=eps, delta=0.1)
    assert degenerate_regime(cfg)
    rng = np.random.default_rng(41)
    for _ in range(20):
        h = random_hamiltonian(n, k, rng)
        h0 = random_hamiltonian(n, k, rng)
        dist = trace_distance(gibbs_density(h, beta), gibbs_density(h0, beta))
        assert dist <= eps / 2


def test_pinsker_gap_identical_states():
    h = random_hamiltonian(2, 2, 50)
    rho = gibbs_density(h, 1.0)[None]
    [diag] = bound_diagnostics(rho, rho, np.zeros_like(rho), [0.0], [1.0], 2, 2)
    assert diag.lhs == pytest.approx(0.0, abs=1e-12)
    assert diag.rhs_pinsker == pytest.approx(0.0, abs=1e-9)


def test_pinsker_gap_closed_form_example():
    hz = LocalHamiltonian(1, 1, {P("Z"): 1.0})
    hmz = LocalHamiltonian(1, 1, {P("Z"): -1.0})
    rho, rho0 = gibbs_density(hz, 1.0), gibbs_density(hmz, 1.0)
    dh = hmz.to_matrix() - hz.to_matrix()
    [diag] = bound_diagnostics(rho[None], rho0[None], dh[None], [2.0], [1.0], 1, 1)
    assert diag.lhs == pytest.approx(2 * math.tanh(1.0))
    assert diag.rhs_pinsker == pytest.approx(math.sqrt(8 * math.tanh(1.0)))
    assert all(s >= -1e-9 for s in diag.slacks)


def test_pinsker_bounds_random_sweep():
    rng = np.random.default_rng(51)
    for _ in range(60):
        n = int(rng.integers(2, 4))
        beta = float(rng.uniform(0.01, 3.0))
        h = random_hamiltonian(n, 2, rng)
        h0 = random_hamiltonian(n, 2, rng)
        sup_coeff = max(abs(h.coeffs.get(p, 0.0) - h0.coeffs.get(p, 0.0))
                        for p in enumerate_local_paulis(n, 2))
        dh = h0.to_matrix() - h.to_matrix()
        [diag] = bound_diagnostics(gibbs_density(h, beta)[None], gibbs_density(h0, beta)[None],
                                   dh[None], [sup_coeff], [beta], n, 2)
        assert min(diag.slacks) >= -1e-9
