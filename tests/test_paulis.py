import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isingcert.paulis import (
    PauliString,
    enumerate_local_paulis,
    local_pauli_count,
    pauli_sum_matrix,
    pauli_trace_inners,
)
from pauli_reference import pauli_matvec, pauli_sum

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def dense(p):
    return pauli_sum_matrix(p.n, [p], [1.0])


def kron(*mats):
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def test_labels_roundtrip():
    p = PauliString.from_label("IXZY")
    assert p.label == "IXZY"
    assert p.weight == 3
    assert [i for i, d in enumerate(p.digits()) if d] == [1, 2, 3]
    assert PauliString(4, 0).is_identity()


def test_strings_are_immutable_values():
    # strings key dicts and the plan caches: equal and hashed by (n, code),
    # and never changed in place
    p, q = PauliString.from_label("XZ"), PauliString(2, 7)
    assert p == q and hash(p) == hash(q) and {p: 1}[q] == 1
    assert p != PauliString(3, 7) and p != (2, 7)
    with pytest.raises(AttributeError):
        p.code = 0
    with pytest.raises(AttributeError):
        del p.n
    assert (p.n, p.code) == (2, 7)


@st.composite
def pauli_strings(draw):
    n = draw(st.integers(1, 12))
    return PauliString(n, draw(st.integers(0, 4**n - 1)))


@given(pauli_strings())
def test_label_round_trip_property(p):
    label = p.label
    assert len(label) == p.n and set(label) <= set("IXYZ")
    assert PauliString.from_label(label) == p
    support = [i for i, ch in enumerate(label) if ch != "I"]
    assert [i for i, d in enumerate(p.digits()) if d] == support
    assert p.weight == len(support)


_WORDS = st.text("IXYZ", max_size=6)


@given(st.just("") | st.builds(lambda a, bad, b: a + bad + b, _WORDS,
                               st.characters().filter(lambda c: c not in "IXYZ"), _WORDS))
def test_malformed_label_rejected(label):
    with pytest.raises(ValueError):
        PauliString.from_label(label)


def test_enumeration_counts():
    assert len(enumerate_local_paulis(1, 1)) == 4
    assert [p.label for p in enumerate_local_paulis(1, 1)] == ["I", "X", "Y", "Z"]
    assert len(enumerate_local_paulis(3, 2)) == 37
    assert len(enumerate_local_paulis(3, 2, include_identity=False)) == 36
    assert local_pauli_count(3, 2) == 37
    # count stays under 100 n^k
    assert 37 <= 100 * 3**2


def test_enumeration_bound_and_brute_force():
    # closed form verified against filtering all 4^n strings, n <= 6
    for n in range(1, 7):
        all_strings = [PauliString(n, c) for c in range(4**n)]
        for k in range(n + 1):
            brute = [p for p in all_strings if p.weight <= k]
            assert local_pauli_count(n, k) == len(brute)
            assert local_pauli_count(n, k) <= 100 * n**k or k == 0
            enumerated = enumerate_local_paulis(n, k)
            assert [p.code for p in enumerated] == [p.code for p in brute]


def test_enumeration_strictly_increasing():
    ps = enumerate_local_paulis(4, 2)
    assert all(a.code < b.code for a, b in zip(ps, ps[1:]))
    assert len(set(ps)) == len(ps)


def test_range_checks():
    with pytest.raises(ValueError):
        enumerate_local_paulis(0, 0)
    with pytest.raises(ValueError):
        enumerate_local_paulis(13, 2)
    with pytest.raises(ValueError):
        enumerate_local_paulis(3, 4)


def test_matrices_match_kron():
    np.testing.assert_allclose(dense(PauliString.from_label("X")), X)
    np.testing.assert_allclose(dense(PauliString.from_label("IZ")),
                               np.diag([1, -1, 1, -1]))
    y = dense(PauliString.from_label("Y"))
    np.testing.assert_allclose(y, Y)
    np.testing.assert_allclose(y @ y, I2, atol=1e-15)
    # every 2-qubit string against the explicit tensor product
    singles = {"I": I2, "X": X, "Y": Y, "Z": Z}
    for a, b in itertools.product("IXYZ", repeat=2):
        got = dense(PauliString.from_label(a + b))
        np.testing.assert_allclose(got, kron(singles[a], singles[b]), atol=1e-15)


def test_matrices_hermitian_unitary():
    for p in enumerate_local_paulis(3, 3):
        m = dense(p)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
        np.testing.assert_allclose(m @ m, np.eye(8), atol=1e-15)


def test_matvec_agrees_with_matrix():
    rng = np.random.default_rng(1)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    for p in enumerate_local_paulis(3, 3):
        np.testing.assert_allclose(pauli_matvec(p, v), dense(p) @ v, atol=1e-12)


def test_trace_inner_agrees_with_dense():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    paulis = enumerate_local_paulis(3, 2)
    for p, inner in zip(paulis, pauli_trace_inners(paulis, a)):
        assert abs(inner - np.trace(dense(p) @ a)) < 1e-10


# Coefficients Tr[P A] / 2^n over all 4^n strings (I, X, Y, Z for one qubit),
# summed back term by term (complex coefficients: pauli_sum_matrix takes real ones).
ONE_QUBIT = enumerate_local_paulis(1, 1)


def test_expand_single_string():
    coeffs = pauli_trace_inners(ONE_QUBIT, X) / 2
    np.testing.assert_allclose(coeffs, [0, 1, 0, 0], rtol=0, atol=1e-14)


def test_expand_diagonal_exponential():
    t = 0.83
    u = np.diag([np.exp(-1j * t), np.exp(1j * t)])
    coeffs = pauli_trace_inners(ONE_QUBIT, u) / 2
    np.testing.assert_allclose(coeffs, [math.cos(t), 0, 0, -1j * math.sin(t)], rtol=0, atol=1e-12)
    np.testing.assert_allclose(pauli_sum(1, ONE_QUBIT, coeffs), u, rtol=0, atol=1e-12)


def test_expand_parseval_simple():
    coeffs = pauli_trace_inners(ONE_QUBIT, (X + Z) / math.sqrt(2)) / 2
    np.testing.assert_allclose(coeffs, [0, 1 / math.sqrt(2), 0, 1 / math.sqrt(2)],
                               rtol=0, atol=1e-12)
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-12


def test_roundtrip_and_parseval_random_corpus():
    # 200 random operators, n <= 3: coefficients summed back to 1e-10, and Parseval
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(1, 4))
        dim = 2**n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        paulis = enumerate_local_paulis(n, n)
        assert len(paulis) == dim * dim
        coeffs = pauli_trace_inners(paulis, a) / dim
        np.testing.assert_allclose(pauli_sum(n, paulis, coeffs), a, atol=1e-10)
        frob_sq = np.trace(a.conj().T @ a).real / dim
        assert abs(np.sum(np.abs(coeffs) ** 2) - frob_sq) < 1e-10
