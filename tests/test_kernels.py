"""Batched kernels against the literal per-item loops they replace.

Each reference below is the loop the package ran before its batched kernel:
the per-term Pauli scatter, the per-member net Gibbs table, the per-order
Schatten moment, the per-string trace inner product, the digit loops of
PauliString, the per-string coefficient draw, and a fresh eigendecomposition
per spectral function in place of a Hamiltonian's cached `spectrum()`, and
one `spectrum()` per Hamiltonian in place of a block's stacked spectra.  The
per-string shadow estimator, the kron-loop Born table and rng.choice are the
references in test_shadows.py.
"""

import re

import numpy as np
import pytest

import isingcert.oracle as oracle
import isingcert.tasks as tasks
from certifier_reference import certifier_instance
from hamiltonian_reference import (cache_spectra, frobenius_norm, hamiltonian_diff,
                                   hamiltonian_sum, net_member, random_fixed_norm, random_sparse)
from isingcert.errors import PromiseViolationError
from isingcert.hamiltonians import HamiltonianNet, gibbs_density, random_hamiltonian
from isingcert.oracle import evolve, evolve_matrix, hermitian_eig, spectral_moments
from isingcert.paulis import (PauliString, enumerate_local_paulis, pauli_sum_matrix,
                              pauli_trace_inners)
from pauli_reference import pauli_phases
from pauli_reference import pauli_sum as reference_pauli_sum
from rng_reference import trial_rng

P = PauliString.from_label


def reference_to_matrix(h):
    dim = 2**h.n
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for p, c in sorted(h.coeffs.items(), key=lambda kv: kv[0].code):
        flip, phases = pauli_phases(p)
        out[cols ^ flip, cols] += c * phases
    return out


def reference_gibbs_table(net, beta):
    out = np.empty((net.size, len(net.support)))
    for i in range(net.size):
        rho = gibbs_density(net_member(net, i), beta)
        for j, p in enumerate(net.support):
            out[i, j] = pauli_trace_inners([p], rho)[0].real
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_to_matrix_equals_per_term_loop(n):
    rng = np.random.default_rng(100 + n)
    for k in range(1, min(n, 3) + 1):
        h = random_hamiltonian(n, k, rng)
        np.testing.assert_array_equal(h.to_matrix(), reference_to_matrix(h))
        sparse = random_sparse(n, k, rng, 1)
        np.testing.assert_array_equal(sparse.to_matrix(), reference_to_matrix(sparse))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_to_matrix_and_reconstruct_equal_loops(n):
    rng = np.random.default_rng(200 + n)
    cols = np.arange(2**n)
    for p in enumerate_local_paulis(n, n):
        flip, phases = pauli_phases(p)
        ref = np.zeros((2**n, 2**n), dtype=complex)
        ref[cols ^ flip, cols] = phases
        np.testing.assert_array_equal(pauli_sum_matrix(n, [p], [1.0]), ref)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    paulis = enumerate_local_paulis(n, n)
    coeffs = pauli_trace_inners(paulis, a + a.conj().T).real / 2**n   # Hermitian: real
    np.testing.assert_array_equal(pauli_sum_matrix(n, paulis, coeffs),
                                  reference_pauli_sum(n, paulis, coeffs))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_pauli_sum_rows_equal_one_matrix_calls(n):
    rng = np.random.default_rng(250 + n)
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    coeffs = rng.uniform(-1.0, 1.0, (5, len(paulis)))
    stack = pauli_sum_matrix(n, paulis, coeffs)
    assert stack.shape == (5, 2**n, 2**n)
    for row, matrix in zip(coeffs, stack):
        np.testing.assert_array_equal(matrix, pauli_sum_matrix(n, paulis, row))


@pytest.mark.parametrize("support, eta, beta", [
    (("X",), 0.25, 1.3),
    (("XYI", "IZZ", "ZIX"), 0.5, 0.7),
])
def test_gibbs_table_matches_per_member_states(support, eta, beta, monkeypatch):
    net = HamiltonianNet([P(s) for s in support], eta)
    ref = reference_gibbs_table(net, beta)
    np.testing.assert_array_equal(net.gibbs_coeff_matrix(beta), ref)
    # stacks of 7 members, so the last stack is partial
    dim = 2**net.n
    monkeypatch.setattr(oracle, "STACK_CHUNK_BYTES", 7 * 16 * dim * dim)
    assert oracle.stack_size(net.n, 1, len(net.support)) == 7
    np.testing.assert_array_equal(net.gibbs_coeff_matrix(beta), ref)


@pytest.mark.parametrize("params", [
    pytest.param({}, id="n2"),
    pytest.param({"n": 3, "k": 3, "support": ["ZII", "IZI", "XXZ"]}, id="n3"),
])
def test_exact_on_grid_learning_finds_every_truth_with_objective_zero(params):
    # the table's rows are the members' exact values, bit for bit, so the
    # exact estimates of an on-grid truth match its row with no rounding gap
    config = {"task": "learn-gibbs", "seed": 5, "trials": 20, "params": {
        **tasks.TASKS["learn-gibbs"].params, "beta": 2.0, "eta": 0.25, "on_grid": True,
        "exact_estimates": True, **params}}
    payload, _ = tasks.run_task(config)
    assert [r["objective"] for r in payload["trials"]] == [0.0] * 20
    assert payload["recovery_rate"] == 1.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_schatten_moments_equal_per_order_moments(n):
    h = random_hamiltonian(n, 2, 400 + n)
    ls = range(2, 9)
    w, _ = hermitian_eig(h.to_matrix())
    literal = [float(np.mean(np.abs(w) ** l) ** (1.0 / l)) for l in ls]
    moments = spectral_moments(h.spectrum()[0][None], ls)[0]
    assert moments == [spectral_moments(w[None], [l])[0][0] for l in ls] == literal
    with pytest.raises(ValueError):
        spectral_moments(w[None], [3, 1])


def reference_digits(code, n):
    out = []
    for _ in range(n):
        out.append(code % 4)
        code //= 4
    return tuple(reversed(out))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_trace_inners_equal_per_string_loop(n):
    rng = np.random.default_rng(500 + n)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    cols = np.arange(2**n)
    paulis = enumerate_local_paulis(n, n)
    ref = []
    for p in paulis:
        flip, phases = pauli_phases(p)
        ref.append(complex(np.sum(np.conj(phases) * a[cols ^ flip, cols])))
    assert pauli_trace_inners(paulis, a).tolist() == ref
    assert [complex(pauli_trace_inners([p], a)[0]) for p in paulis] == ref


def test_weight_and_digits_equal_digit_loop():
    for n in range(1, 7):
        for code in range(4**n):
            p = PauliString(n, code)
            digits = reference_digits(code, n)
            assert p.digits() == digits
            assert p.weight == sum(1 for d in digits if d != 0)


def test_enumeration_is_cached_and_returns_independent_lists():
    first = enumerate_local_paulis(4, 2)
    ref = [PauliString(4, c) for c in range(4**4)
           if sum(1 for d in reference_digits(c, 4) if d) <= 2]
    assert first == ref
    first.clear()
    second = enumerate_local_paulis(4, 2)
    assert second == ref and second is not enumerate_local_paulis(4, 2)
    assert enumerate_local_paulis(4, 2, include_identity=False) == ref[1:]


@pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (3, 2), (4, 3)])
def test_vector_coefficient_draw_equals_scalar_draws(n, k):
    paulis = enumerate_local_paulis(n, k, include_identity=False)
    for draw in (random_hamiltonian, lambda n, k, rng: random_fixed_norm(n, k, rng, 0.5)):
        rng, ref_rng = np.random.default_rng(600 + n), np.random.default_rng(600 + n)
        h = draw(n, k, rng)
        ref = {p: float(ref_rng.uniform(-1.0, 1.0)) for p in paulis}
        if draw is not random_hamiltonian:
            scale = 0.5 / np.sqrt(sum(v * v for v in ref.values()))
            ref = {p: v * scale for p, v in ref.items()}
        assert h.coeffs == ref
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_gibbs_and_operator_norm_use_hermitian_eig(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a.shape)
        return hermitian_eig(a)

    monkeypatch.setattr(oracle, "hermitian_eig", counted)
    h = random_hamiltonian(2, 2, 700)
    gibbs_density(h, 0.9)
    h.operator_norm()
    evolve(h, 0.3)
    spectral_moments(h.spectrum()[0][None], [2, 3])
    assert calls == [(4, 4)]
    random_hamiltonian(2, 2, 700).operator_norm()
    assert calls == [(4, 4), (4, 4)]


def test_gibbs_table_uses_stacked_hermitian_eig(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a.shape)
        return hermitian_eig(a)

    monkeypatch.setattr(oracle, "hermitian_eig", counted)
    HamiltonianNet([P("ZI"), P("IZ")], 0.5).gibbs_coeff_matrix(1.0)
    assert calls == [(25, 4, 4)]


def _hamiltonians(n):
    # a checked instance and one built through _unchecked (a difference)
    h = random_hamiltonian(n, 2, 710 + n)
    return h, hamiltonian_diff(h, random_hamiltonian(n, 2, 720 + n))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_evolve_equals_uncached_evolve_matrix(n):
    for h in _hamiltonians(n):
        for t in (0.37, -1.9, 0.37):   # the repeat reads the cached spectrum again
            np.testing.assert_array_equal(evolve(h, t), evolve_matrix(h.to_matrix(), t))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_gibbs_and_moments_equal_uncached_formulas(n):
    ls = [2, 3, 6]
    for h in _hamiltonians(n):
        w, v = hermitian_eig(h.to_matrix())
        for beta in (0.0, 0.8, 3.0):
            expw = np.exp(-beta * (w - w.min()))
            expw /= expw.sum()
            rho = (v * expw) @ v.conj().T
            np.testing.assert_array_equal(gibbs_density(h, beta), 0.5 * (rho + rho.conj().T))
        literal = [float(np.mean(np.abs(w) ** l) ** (1.0 / l)) for l in ls]
        assert spectral_moments(h.spectrum()[0][None], ls)[0] == literal
        assert h.operator_norm() == float(np.max(np.abs(w)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cached_spectrum_is_read_only(n):
    for h in _hamiltonians(n):
        w, v = h.spectrum()
        assert h.spectrum()[0] is w and h.spectrum()[1] is v
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            v[0, 0] = 0.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_spectra_equal_per_hamiltonian_spectra(n, monkeypatch):
    calls = []

    def counted(a):
        calls.append(a.shape)
        return hermitian_eig(a)

    # one Hamiltonian lacks strings the others have
    hams = [*_hamiltonians(n), random_sparse(n, 2, 730 + n, 3)]
    cache_spectra(hams)
    for h in hams:
        w, v = hermitian_eig(h.to_matrix())
        np.testing.assert_array_equal(h.spectrum()[0], w)
        np.testing.assert_array_equal(h.spectrum()[1], v)
        with pytest.raises(ValueError):
            h.spectrum()[0][0] = 0.0
    # certify-dynamics: blocks of 3 trials, so 7 trials end in a partial block
    terms = max(2**n, len(enumerate_local_paulis(n, 2, include_identity=False)))
    monkeypatch.setattr(oracle, "STACK_CHUNK_BYTES", 3 * 2 * 16 * 2**n * terms)
    monkeypatch.setattr(oracle, "hermitian_eig", counted)
    params = {**tasks.TASKS["certify-dynamics"].params, "n": n}
    blocks = list(tasks._dynamics_blocks(params, 5, 7))
    assert [t for block, *_ in blocks for t in block] == list(range(7))
    assert calls == [(6, 2**n, 2**n), (6, 2**n, 2**n), (2, 2**n, 2**n)]
    for block, _, (w0, v0, w1, v1) in blocks:
        for i, t in enumerate(block):
            pair = certifier_instance(trial_rng(5, t, 1), n, params["eps"], False)
            for ham, w_ham, v_ham in zip(pair, (w0, w1), (v0, v1)):
                w, v = hermitian_eig(ham.to_matrix())
                np.testing.assert_array_equal(w_ham[i], w)
                np.testing.assert_array_equal(v_ham[i], v)
    assert len(calls) == 3


def test_certifier_coeffs_names_the_trial_of_its_row():
    # at seed 27 the block of trials 5, 6 and 7 first leaves the box at row 2
    def draw(trials):
        return tasks.certifier_coeffs(tasks.trial_rngs(27, trials, 1), trials, 2, 0.15, True,
                                      2.0)

    draw(range(5, 7))
    with pytest.raises(PromiseViolationError, match=r"^trial 7: .* leaves the box"):
        draw(range(5, 8))


@pytest.mark.parametrize("far, eps, gap", [(False, 1.0, "eps = 1.0"),
                                           (True, 0.09, f"12 eps = {12.0 * 0.09}")])
def test_certifier_coeffs_gap_guard_names_the_arm_gap(far, eps, gap):
    # the CLI refuses these in its config step; a direct call still needs c_frob > gap
    rngs = [np.random.default_rng(0)]
    with pytest.raises(ValueError, match=f"^{re.escape(gap)} leaves no room inside c_frob = 1.0$"):
        tasks.certifier_coeffs(rngs, [0], 2, eps, far, 1.0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_certifier_rows_equal_per_instance_draws(n):
    # a block's coefficient rows against one random_hamiltonian pair per trial,
    # summed as LocalHamiltonians; the gap norm only differs in summation order
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    for far, c_frob in ((False, 1.0), (True, 1.0), (True, 1.5)):
        gap = 12.0 * 0.05 if far else 0.05   # as the arms compute it
        h0_rows, h_rows, delta = tasks.certifier_coeffs(
            [np.random.default_rng((740, n, t)) for t in range(5)], range(5), n, 0.05, far,
            c_frob)
        for t in range(5):
            rng = np.random.default_rng((740, n, t))
            h0 = random_fixed_norm(n, 2, rng, min(0.35 * c_frob, 0.9 * (c_frob - gap)))
            h = hamiltonian_sum(h0, random_fixed_norm(n, 2, rng, 1.0).scaled(gap))
            assert h0_rows[t].tolist() == [h0.coeffs.get(p, 0.0) for p in paulis]
            assert h_rows[t].tolist() == [h.coeffs.get(p, 0.0) for p in paulis]
            assert delta[t] == pytest.approx(frobenius_norm(hamiltonian_diff(h, h0)), abs=1e-15)
