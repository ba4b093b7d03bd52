"""The cached Pauli action plan and the kernels that read it, against the
literal references in pauli_reference.py, at n = 1..6 (the plan itself at
n = 1..8).

Results must be equal bit for bit (signs of zero included), whatever the
stack a row or matrix sits in.
"""

import itertools

import numpy as np
import pytest

import isingcert.oracle as oracle
import isingcert.tasks as tasks
import pauli_reference as ref
from isingcert.hamiltonians import gibbs_density, random_hamiltonian
from isingcert.oracle import spectral_moments
from isingcert.paulis import (
    PauliString,
    enumerate_local_paulis,
    pauli_plan,
    pauli_sum_matrix,
    pauli_trace_inners,
)

NS = [1, 2, 3, 4, 5, 6]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def strings(n):
    """Every string up to n = 3, then the weight <= 2 ones, in a shuffled
    order with the identity dropped, so input order is not code order."""
    paulis = enumerate_local_paulis(n, min(n, 3 if n <= 3 else 2))
    order = np.random.default_rng(n).permutation(len(paulis))
    return [paulis[i] for i in order if not paulis[i].is_identity()]


def coefficient_rows(n, terms):
    rng = np.random.default_rng(700 + n)
    real = rng.uniform(-1.0, 1.0, (3, terms))
    signed_zeros = real.copy()
    signed_zeros[:, ::2] = -0.0
    return {
        "real": real,
        "zero": np.zeros((3, terms)),
        "negative-zero": np.full((3, terms), -0.0),
        "signed-zeros": signed_zeros,
    }


@pytest.mark.parametrize("kind", ["real", "zero", "negative-zero", "signed-zeros"])
@pytest.mark.parametrize("n", NS)
def test_scatter_equals_term_by_term_sum(n, kind):
    paulis = strings(n)
    coeffs = coefficient_rows(n, len(paulis))[kind]
    stack = pauli_sum_matrix(n, paulis, coeffs)
    assert_same_bits(stack, ref.pauli_sum(n, paulis, coeffs))
    for row, matrix in zip(coeffs, stack):
        assert_same_bits(pauli_sum_matrix(n, paulis, row), matrix)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_scatter_stack_cut_at_chunk_boundary_equals_whole(n, monkeypatch):
    # the sweeps cut their stacks at oracle.stack_size items: here 3, so 8 rows
    # make chunks of 3, 3 and 2
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    coeffs = np.random.default_rng(710 + n).uniform(-1.0, 1.0, (8, len(paulis)))
    whole = pauli_sum_matrix(n, paulis, coeffs)
    monkeypatch.setattr(oracle, "STACK_CHUNK_BYTES",
                        3 * 16 * 2**n * max(2**n, len(paulis)))
    size = oracle.stack_size(n, 1, len(paulis))
    assert size == 3
    chunks = [pauli_sum_matrix(n, paulis, coeffs[i:i + size]) for i in range(0, 8, size)]
    assert_same_bits(np.concatenate(chunks), whole)


def test_scatter_of_no_strings_is_zero():
    assert_same_bits(pauli_sum_matrix(2, [], np.zeros((3, 0))), np.zeros((3, 4, 4), complex))


def random_stacks(n, m):
    rng = np.random.default_rng(720 + n)
    dim = 2**n
    general = rng.normal(size=(m, dim, dim)) + 1j * rng.normal(size=(m, dim, dim))
    hermitian = np.array([gibbs_density(random_hamiltonian(n, min(n, 2), rng), 0.7)
                          for _ in range(m)])
    return {"non-hermitian": general, "hermitian": hermitian}


@pytest.mark.parametrize("kind", ["non-hermitian", "hermitian"])
@pytest.mark.parametrize("n", NS)
def test_trace_inners_equal_per_matrix_loop(n, kind):
    paulis = strings(n)
    a = random_stacks(n, 5)[kind]
    stacked = pauli_trace_inners(paulis, a)
    assert_same_bits(stacked, ref.trace_inners(paulis, a))
    for matrix, row in zip(a, stacked):
        assert_same_bits(pauli_trace_inners(paulis, matrix), row)
        assert_same_bits(ref.trace_inners(paulis, matrix), row)
    # one string at a time
    for j in (0, len(paulis) // 2, len(paulis) - 1):
        assert_same_bits(pauli_trace_inners([paulis[j]], a)[:, 0], stacked[:, j])


def test_trace_inners_reject_strings_of_another_size():
    with pytest.raises(ValueError, match="qubits"):
        pauli_trace_inners(enumerate_local_paulis(3, 1), np.eye(4))
    with pytest.raises(ValueError, match="qubits"):
        pauli_sum_matrix(2, enumerate_local_paulis(3, 1), np.ones(10))


@pytest.mark.parametrize("n", NS)
def test_spectral_moments_equal_numpy_scalar_roots(n):
    rng = np.random.default_rng(730 + n)
    w = np.array([np.linalg.eigvalsh(random_hamiltonian(n, min(n, 2), rng).to_matrix())
                  for _ in range(6)])
    w = np.concatenate([w, rng.normal(scale=10.0, size=(3, 2**n)), np.zeros((1, 2**n))])
    ls = list(range(2, 13))
    literal = [[float(np.mean(np.abs(row) ** l) ** (1.0 / l)) for l in ls] for row in w]
    assert spectral_moments(w, ls) == literal
    assert spectral_moments(w[:0], ls) == []


@pytest.mark.parametrize("n", NS + [7, 8])
def test_plan_equals_per_string_reference(n):
    # the strings of weight <= k for k = 0..3, with and without the
    # identity, in code order and reversed
    for k, identity in itertools.product(range(min(n, 3) + 1), (True, False)):
        codes = tuple(p.code for p in enumerate_local_paulis(n, k, identity))
        for order in (codes, codes[::-1]):
            for mine, reference in zip(pauli_plan(n, order), ref.plan(n, order)):
                assert_same_bits(mine, reference)


def test_plan_is_cached_read_only_and_split_by_phase():
    paulis = [PauliString.from_label(s) for s in ("XYZ", "ZZI", "YYI", "IXY", "III")]
    codes = tuple(p.code for p in paulis)
    plan = pauli_plan(3, codes)
    assert pauli_plan(3, codes) is plan
    odd = np.array([[1], [0], [0], [1], [0]], dtype=bool)   # odd number of Y
    np.testing.assert_array_equal(plan.bins, 2 * plan.index + odd)
    phases = plan.conj_phases.conj()
    np.testing.assert_array_equal(phases, np.where(odd, 1j, 1.0) * plan.signs)
    for a in plan:
        with pytest.raises(ValueError):
            a.flat[0] = 0
