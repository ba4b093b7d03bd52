import numpy as np
import pytest

from access_reference import (
    StabilizerState,
    basis_matrix,
    basis_vector,
    enumerate_stabilizer_states,
    pauli_to_zx,
    paulis_commute,
    sample_stabilizer_state,
    state_index,
    symplectic_product,
    zx_to_pauli,
)
from isingcert.identity_estimator import exact_indicator_expectation
from isingcert.paulis import PauliString
from isingcert.stabilizers import stabilizer_state_matrix
from pauli_reference import pauli_matvec

P = PauliString.from_label


def _haar_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n", [1, 2])
def test_orbit_matches_generator_enumeration_up_to_phase(n):
    reference = np.array([s.vector for s in enumerate_stabilizer_states(n)])
    overlaps = np.abs(stabilizer_state_matrix(n).conj() @ reference.T)
    matched = overlaps > 1 - 1e-12
    assert overlaps.shape == (len(reference),) * 2
    assert (matched.sum(axis=0) == 1).all() and (matched.sum(axis=1) == 1).all()


@pytest.mark.parametrize("n", [1, 2])
def test_indicator_expectation_agrees_with_generator_enumeration(n):
    reference = np.array([s.vector for s in enumerate_stabilizer_states(n)])
    rng = np.random.default_rng(90 + n)
    for _ in range(20):
        u = _haar_unitary(2**n, rng)
        literal = np.mean(np.abs(np.einsum("si,ij,sj->s", reference.conj(), u, reference)) ** 2)
        assert exact_indicator_expectation(u, n) == pytest.approx(literal, abs=1e-12)


def test_orbit_is_read_only_and_refuses_three_qubits():
    for n in (1, 2):
        assert not stabilizer_state_matrix(n).flags.writeable
    with pytest.raises(ValueError):
        exact_indicator_expectation(np.eye(8), 3)


def test_zx_roundtrip_and_commutation():
    for label in ("X", "Y", "Z", "IX", "ZY", "XX"):
        assert zx_to_pauli(pauli_to_zx(P(label))).label == label
    assert paulis_commute(P("XX"), P("ZZ"))
    assert not paulis_commute(P("XI"), P("ZI"))
    assert symplectic_product(pauli_to_zx(P("X")), pauli_to_zx(P("Z"))) == 1


def test_enumeration_counts():
    assert len(enumerate_stabilizer_states(1)) == 6
    assert len(enumerate_stabilizer_states(2)) == 60
    with pytest.raises(ValueError):
        enumerate_stabilizer_states(3)


def test_enumerated_states_distinct():
    mat = stabilizer_state_matrix(2)
    gram = np.abs(mat.conj() @ mat.T)
    assert np.all(np.diag(gram) > 1 - 1e-12)
    np.fill_diagonal(gram, 0.0)
    assert gram.max() < 1 - 1e-6


def test_single_qubit_states_are_the_six_axes():
    vecs = stabilizer_state_matrix(1)
    axis_states = [
        np.array([1, 0]), np.array([0, 1]),
        np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2),
        np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2),
    ]
    for target in axis_states:
        overlaps = np.abs(vecs.conj() @ target)
        assert overlaps.max() > 1 - 1e-12


def test_invariants_on_sampled_states():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        for _ in range(20):
            s = sample_stabilizer_state(n, rng, method="sequential" if n > 2 else "auto")
            v = s.vector
            assert abs(np.linalg.norm(v) - 1.0) < 1e-10  # pure
            for g, sign in zip(s.generators, s.signs):
                np.testing.assert_allclose(pauli_matvec(g, v), sign * v, atol=1e-10)


def test_validation_rejects_bad_generators():
    with pytest.raises(ValueError):
        StabilizerState(2, (P("XI"), P("ZI")), (1, 1))  # anticommuting
    with pytest.raises(ValueError):
        StabilizerState(2, (P("ZI"), P("ZI")), (1, 1))  # dependent
    with pytest.raises(ValueError):
        StabilizerState(1, (P("Z"),), (2,))             # bad sign


def test_basis_matrix_orthonormal_and_indexed():
    s = enumerate_stabilizer_states(2)[23]
    b = basis_matrix(s)
    np.testing.assert_allclose(b.conj().T @ b, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(b[:, 0], s.vector, atol=1e-12)
    # outcome bit flips the corresponding generator's eigenvalue
    v1 = basis_vector(s, 0b10)
    np.testing.assert_allclose(pauli_matvec(s.generators[0], v1), -s.signs[0] * v1,
                               atol=1e-10)
    np.testing.assert_allclose(pauli_matvec(s.generators[1], v1), s.signs[1] * v1,
                               atol=1e-10)


def test_uniformity_single_qubit_chi_squared():
    # 60000 draws over the 6 states; 3-sigma band on the chi-squared statistic
    rng = np.random.default_rng(123)
    draws = 60000
    counts = np.zeros(6)
    for _ in range(draws):
        counts[state_index(sample_stabilizer_state(1, rng))] += 1
    expected = draws / 6
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = 5
    assert chi2 <= dof + 3 * np.sqrt(2 * dof), counts


def test_sequential_sampler_uniform_n2():
    # the general-n sampler must match the exact enumeration distribution
    rng = np.random.default_rng(77)
    draws = 12000
    counts = np.zeros(60)
    for _ in range(draws):
        counts[state_index(sample_stabilizer_state(2, rng, method="sequential"))] += 1
    expected = draws / 60
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = 59
    assert chi2 <= dof + 3 * np.sqrt(2 * dof), chi2
