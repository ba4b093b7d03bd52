import math

import numpy as np
import pytest

from hamiltonian_reference import frobenius_norm
from isingcert.hamiltonians import LocalHamiltonian, gibbs_density, random_hamiltonian
from isingcert.oracle import (
    evolve,
    hermitian_eig,
    hermitian_eigvals,
    identity_coeff,
    moment_tail_partial_sums,
    spectral_moments,
    trace_distance,
)
from isingcert.paulis import PauliString

P = PauliString.from_label


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 3)))


def test_hermitian_eig_checks_each_matrix_of_a_stack():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    stack = a + np.swapaxes(a.conj(), -1, -2)
    w, v = hermitian_eig(stack)
    for i in range(4):
        np.testing.assert_array_equal(w[i], hermitian_eig(stack[i])[0])
    bad = stack.copy()
    bad[2, 0, 1] += 1e-3
    with pytest.raises(ValueError):
        hermitian_eig(bad)
    # each matrix at its own scale: an asymmetry of 1e-3 passes in a matrix
    # of entries near 1e6, and still fails beside one
    big = 1e6 * stack[0]
    big[0, 1] += 1e-3
    hermitian_eig(big)
    with pytest.raises(ValueError):
        hermitian_eig(np.array([big, bad[2]]))


def test_hermitian_eigvals_checks_each_matrix_of_a_stack():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    stack = a + np.swapaxes(a.conj(), -1, -2)
    w = hermitian_eigvals(stack)
    for i in range(4):
        np.testing.assert_array_equal(w[i], hermitian_eigvals(stack[i]))
    np.testing.assert_allclose(w, hermitian_eig(stack)[0], rtol=0, atol=1e-12)
    bad = stack.copy()
    bad[2, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigvals(bad)
    with pytest.raises(ValueError, match="square"):
        hermitian_eigvals(stack[:, :2])
    big = 1e6 * stack[0]
    big[0, 1] += 1e-3
    hermitian_eigvals(big)
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigvals(np.array([big, bad[2]]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_matrices_are_rejected(value):
    bad = np.array([[value, 0.0], [0.0, 1.0]], dtype=complex)
    # a stack with one finite matrix before the bad one
    stack = np.array([np.eye(2) / 2, bad])
    for a in (bad, stack):
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eig(a)
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eigvals(a)
        with pytest.raises(ValueError, match="non-finite"):
            trace_distance(a, np.broadcast_to(np.eye(2) / 2, a.shape))
        with pytest.raises(ValueError, match="non-finite"):
            trace_distance(np.broadcast_to(np.eye(2) / 2, a.shape), a)


def test_evolve_identity_at_zero():
    h = random_hamiltonian(2, 2, 1)
    np.testing.assert_allclose(evolve(h, 0.0), np.eye(4), atol=1e-12)


def test_evolve_diagonal():
    h = LocalHamiltonian(1, 1, {P("Z"): 1.0})
    t = 1.234
    np.testing.assert_allclose(evolve(h, t),
                               np.diag([np.exp(-1j * t), np.exp(1j * t)]), atol=1e-12)


def test_evolve_unitary_and_group_law():
    rng = np.random.default_rng(2)
    for _ in range(20):
        h = random_hamiltonian(2, 2, rng)
        t, s = rng.uniform(0, 2, size=2)
        u, v = evolve(h, t), evolve(h, s)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(u @ v, evolve(h, t + s), atol=1e-9)


def test_trace_distance_basics():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(rho, rho) == pytest.approx(0.0)
    assert trace_distance(rho, sigma) == pytest.approx(2.0)


def test_trace_distance_gibbs_closed_form():
    hz = LocalHamiltonian(1, 1, {P("Z"): 1.0})
    hmz = LocalHamiltonian(1, 1, {P("Z"): -1.0})
    d = trace_distance(gibbs_density(hz, 1.0), gibbs_density(hmz, 1.0))
    assert d == pytest.approx(2 * math.tanh(1.0), abs=1e-12)


def test_schatten_examples():
    zz = LocalHamiltonian(2, 2, {P("ZZ"): 1.0})
    assert spectral_moments(zz.spectrum()[0][None], [2, 3, 5, 8])[0] == pytest.approx([1.0] * 4)
    h = random_hamiltonian(3, 2, 5)
    w = h.spectrum()[0][None]
    assert spectral_moments(w, [2])[0][0] == pytest.approx(frobenius_norm(h), abs=1e-10)
    with pytest.raises(ValueError):
        spectral_moments(w, [1])


def test_moment_bound_small_sweep():
    # 2-local moment growth: (Tr|H|^l/2^n)^(1/l) <= l ||H||_F
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        h = random_hamiltonian(n, 2, rng)
        frob = frobenius_norm(h)
        ls = range(3, 9)
        for l, moment in zip(ls, spectral_moments(h.spectrum()[0][None], ls)[0]):
            assert moment <= l * frob + 1e-9


def test_identity_coeff():
    assert identity_coeff(np.eye(4, dtype=complex)) == pytest.approx(1.0)
    h = LocalHamiltonian(1, 1, {P("Z"): 0.8})
    t = 0.9
    assert identity_coeff(evolve(h, t)) == pytest.approx(math.cos(0.8 * t), abs=1e-12)


def test_tail_partial_sums_match_direct_evaluation():
    # independent evaluation with exact integer factorials
    x, k, lmax = 0.2, 3, 12
    sums = moment_tail_partial_sums(x, k, lmax)
    direct = 0.0
    for i, l in enumerate(range(3, lmax + 1)):
        direct += x**l * l ** (l * k / 2.0) / math.factorial(l)
        assert sums[i] == pytest.approx(direct, rel=1e-12)


def test_tail_bounded_for_k2_and_divergent_for_k3():
    x = math.exp(-2.0)
    k2 = moment_tail_partial_sums(x, 2, 40)
    # geometric majorant: terms x^l l^l/l! <= (x e)^l = e^-l
    assert k2[-1] <= sum(math.exp(-l) for l in range(3, 41))
    assert np.all(np.diff(k2) >= 0)
    k3 = moment_tail_partial_sums(x, 3, 40)
    assert k3[-1] > 1e6
    k4 = moment_tail_partial_sums(x, 4, 40)
    assert k4[-1] > k3[-1]
    # at the smaller argument e^-3 the k=2 tail is still tiny and bounded
    small = moment_tail_partial_sums(math.exp(-3.0), 2, 40)
    assert small[-1] < 1e-3


def test_tail_argument_validation():
    with pytest.raises(ValueError):
        moment_tail_partial_sums(0.0, 2, 40)
    with pytest.raises(ValueError):
        moment_tail_partial_sums(0.1, 2, 2)
