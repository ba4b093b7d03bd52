import math

import numpy as np
import pytest

from access_reference import index_of_values, net_covering_check, round_member_index, round_to_grid
from hamiltonian_reference import (frobenius_norm, hamiltonian_diff, net_member, random_fixed_norm,
                                   random_sparse)
from isingcert.hamiltonians import (
    HamiltonianNet,
    LocalHamiltonian,
    frobenius_norms,
    gibbs_density,
    random_hamiltonian,
)
from isingcert.paulis import (PauliString, enumerate_local_paulis, local_pauli_count,
                              pauli_trace_inners)

P = PauliString.from_label


def test_invariants_enforced():
    with pytest.raises(ValueError):
        LocalHamiltonian(1, 1, {P("I"): 0.5})       # traceless
    with pytest.raises(ValueError):
        LocalHamiltonian(2, 1, {P("XX"): 0.5})      # weight > k
    with pytest.raises(ValueError):
        LocalHamiltonian(1, 1, {P("Z"): 1.5})       # |h| > 1
    h = LocalHamiltonian(1, 1, {P("I"): 0.0, P("Z"): 0.3})
    assert P("I") not in h.coeffs


def test_frobenius_examples():
    assert frobenius_norm(LocalHamiltonian(1, 1, {P("X"): 0.3})) == pytest.approx(0.3)
    h = LocalHamiltonian(2, 1, {P("XI"): 0.5, P("IZ"): 0.5})
    assert frobenius_norm(h) == pytest.approx(1 / math.sqrt(2))


def test_frobenius_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = random_hamiltonian(3, 2, rng)
        m = h.to_matrix()
        dense = math.sqrt(np.trace(m @ m).real / 8)
        assert abs(frobenius_norm(h) - dense) < 1e-10


def test_operator_norm_examples():
    assert LocalHamiltonian(2, 2, {P("ZZ"): 1.0}).operator_norm() == pytest.approx(1.0)
    h = LocalHamiltonian(1, 1, {P("X"): 1.0, P("Z"): 1.0})
    assert h.operator_norm() == pytest.approx(math.sqrt(2))


def test_operator_norm_triangle_bound():
    rng = np.random.default_rng(4)
    for _ in range(100):
        h = random_hamiltonian(2, 2, rng)
        assert h.operator_norm() <= sum(abs(c) for c in h.coeffs.values()) + 1e-9


def test_gibbs_diagonal_case():
    h = LocalHamiltonian(1, 1, {P("Z"): 1.0})
    rho = gibbs_density(h, 1.0)
    z = math.exp(-1.0) + math.exp(1.0)
    np.testing.assert_allclose(rho, np.diag([math.exp(-1.0), math.exp(1.0)]) / z, atol=1e-12)
    # Pauli expectation: Tr[Z rho] = -tanh(1)
    assert pauli_trace_inners([P("Z")], rho)[0].real == pytest.approx(-math.tanh(1.0))


def test_gibbs_degenerate_cases():
    h = LocalHamiltonian(2, 2, {P("XX"): 0.7})
    np.testing.assert_allclose(gibbs_density(h, 0.0), np.eye(4) / 4, atol=1e-12)
    zero = LocalHamiltonian(2, 2, {})
    np.testing.assert_allclose(gibbs_density(zero, 2.0), np.eye(4) / 4, atol=1e-12)
    with pytest.raises(ValueError):
        gibbs_density(h, -0.1)


def test_gibbs_positivity_normalization_sweep():
    # 200 random (H, beta) instances
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        h = random_hamiltonian(n, min(2, n), rng)
        beta = float(rng.uniform(0.0, 5.0))
        rho = gibbs_density(h, beta)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        w = np.linalg.eigvalsh(rho)
        assert w.min() > -1e-10
        # matches exp(-beta H)/Z entrywise
        hm = h.to_matrix()
        ws, vs = np.linalg.eigh(hm)
        direct = (vs * np.exp(-beta * ws)) @ vs.conj().T
        direct /= np.trace(direct).real
        np.testing.assert_allclose(rho, direct, atol=1e-9)


def test_random_hamiltonian_determinism():
    a = random_hamiltonian(2, 2, 7)
    b = random_hamiltonian(2, 2, 7)
    assert a.coeffs == b.coeffs


def test_random_hamiltonian_laws():
    # the test references for the laws besides the uniform one
    h = random_fixed_norm(3, 2, 11, 0.6)
    assert abs(frobenius_norm(h) - 0.6) < 1e-12
    h2 = random_sparse(3, 2, 12, 3)
    assert len(h2.coeffs) == 3
    with pytest.raises(ValueError):
        # 15 strings with |h| <= 1 cannot reach Frobenius norm 4
        random_fixed_norm(2, 2, 13, 4.0)


def test_round_to_grid():
    assert round_to_grid(0.6, 0.5) == pytest.approx(0.5)
    assert round_to_grid(-0.6, 0.5) == pytest.approx(-0.5)
    # exact tie goes toward zero
    assert round_to_grid(0.25, 0.5) == 0.0
    assert round_to_grid(-0.25, 0.5) == 0.0
    assert round_to_grid(0.75, 0.5) == pytest.approx(0.5)
    # clamped to the grid edge
    assert round_to_grid(0.99, 0.3) == pytest.approx(0.9)


def test_net_enumeration():
    net = HamiltonianNet([P("Z")], 0.5)
    assert net.size == 5
    np.testing.assert_allclose(net.grid, [-1, -0.5, 0, 0.5, 1])
    members = [net_member(net, i).coeffs.get(P("Z"), 0.0) for i in range(5)]
    assert members == [-1.0, -0.5, 0.0, 0.5, 1.0]
    for i in range(5):
        assert index_of_values(net, net.values(i)) == i
    for i in (-1, 5):
        with pytest.raises(IndexError):
            net_member(net, i)


def test_net_budget():
    # the members are counted before the grid is built: 1/eta = 1e30 is a
    # grid numpy cannot allocate, and 1/eta past the float range is inf
    for eta in (0.001, 1e-30, 1e-320, 5e-324):
        with pytest.raises(ValueError, match="over the enumeration budget"):
            HamiltonianNet([P("ZI"), P("IZ"), P("ZZ")], eta)


def test_net_covering_on_grid_is_exact():
    net = HamiltonianNet([P("Z")], 0.5)
    h = LocalHamiltonian(1, 1, {P("Z"): 0.5})
    check = net_covering_check(h, net, 1.0)
    assert check.distance == pytest.approx(0.0, abs=1e-12)
    assert net_member(net, check.member_index).coeffs.get(P("Z"), 0.0) == pytest.approx(0.5)


def test_net_covering_bound_random():
    # off-grid Hamiltonians on {Z1, Z2, Z1Z2}: trace distance <= 200 beta n^k eta
    rng = np.random.default_rng(8)
    support = [P("ZI"), P("IZ"), P("ZZ")]
    net = HamiltonianNet(support, 0.25)
    for _ in range(25):
        coeffs = {p: float(rng.uniform(-1, 1)) for p in support}
        h = LocalHamiltonian(2, 2, coeffs)
        check = net_covering_check(h, net, 1.0)
        assert check.distance <= check.bound + 1e-9
        assert check.bound == pytest.approx(200 * 1.0 * 2**2 * 0.25)


def test_net_rejects_off_support():
    net = HamiltonianNet([P("ZI")], 0.5)
    h = LocalHamiltonian(2, 2, {P("XX"): 0.3})
    with pytest.raises(ValueError):
        round_member_index(net, h)


@pytest.mark.parametrize("eta", [0.0, -0.5, math.nan, math.inf])
def test_net_rejects_a_spacing_out_of_range(eta):
    # NaN fails the check, where it would reach the grid as NaN values
    with pytest.raises(ValueError, match="eta must be positive and finite"):
        HamiltonianNet([P("ZI")], eta)


def test_net_rejects_repeated_support_strings():
    # the Gibbs table would add both ZI columns, a member would keep one
    with pytest.raises(ValueError, match="distinct"):
        HamiltonianNet([P("ZI"), P("ZI"), P("ZZ")], 0.25)


def test_member_matrices_equal_member_hamiltonians():
    # members with zero values, then off-grid rows: each row is the matrix of
    # its Hamiltonian, bit for bit, with the support in reverse code order
    net = HamiltonianNet([P("ZZI"), P("ZII"), P("IZI"), P("IIZ")], 0.5)
    index = np.arange(net.size)
    np.testing.assert_array_equal(net.values(index), [net.values(i) for i in index])
    matrices = net.matrices(net.values(index))
    for i in index:
        np.testing.assert_array_equal(matrices[i], net_member(net, i).to_matrix())
    rows = np.random.default_rng(2).uniform(-1.0, 1.0, (200, 4))
    matrices = net.matrices(rows)
    for row, matrix in zip(rows.tolist(), matrices):
        h = LocalHamiltonian(3, 2, dict(zip(net.support, row)))
        np.testing.assert_array_equal(matrix, h.to_matrix())


@pytest.mark.parametrize("n", [2, 3, 5])
def test_frobenius_norms_equal_the_sequential_sum(n):
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    rows = np.random.default_rng(n).uniform(-1.0, 1.0, (4, 2, local_pauli_count(n, 2) - 1))
    expected = [[math.sqrt(sum(h * h for h in row)) for row in pair] for pair in rows.tolist()]
    np.testing.assert_array_equal(frobenius_norms(rows), expected)
    np.testing.assert_array_equal(frobenius_norms(rows[0, 0]), expected[0][0])
    h = LocalHamiltonian(n, 2, dict(zip(paulis, rows[1, 1].tolist())))
    assert frobenius_norm(h) == expected[1][1]
    assert frobenius_norms(np.zeros((3, 0))).tolist() == [0.0] * 3   # k = 0: no strings


def test_value_matrix_matches_members():
    net = HamiltonianNet([P("ZI"), P("IZ")], 0.5)
    vm = net.values(np.arange(net.size))
    for i in range(net.size):
        np.testing.assert_array_equal(vm[i], net.values(i))
        assert [net_member(net, i).coeffs.get(p, 0.0) for p in net.support] == vm[i].tolist()


def test_gibbs_coeff_matrix_matches_states():
    net = HamiltonianNet([P("Z")], 0.5)
    mat = net.gibbs_coeff_matrix(1.3)
    for i in range(net.size):
        rho = gibbs_density(net_member(net, i), 1.3)
        assert mat[i, 0] == pytest.approx(pauli_trace_inners([P("Z")], rho)[0].real, abs=1e-12)


def test_hamiltonian_diff_norm():
    a = LocalHamiltonian(1, 1, {P("Z"): 0.9})
    b = LocalHamiltonian(1, 1, {P("Z"): -0.9})
    d = hamiltonian_diff(a, b)
    assert frobenius_norm(d) == pytest.approx(1.8)
