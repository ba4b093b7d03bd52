import itertools
import math

import numpy as np
import pytest

from hamiltonian_reference import net_member
from isingcert import shadows
from isingcert.hamiltonians import HamiltonianNet, gibbs_density, random_hamiltonian
from isingcert.paulis import PauliString, enumerate_local_paulis, pauli_trace_inners
from isingcert.shadows import (
    batch_sizes,
    born_table,
    collect_shadows,
    estimate_paulis,
    mom_batches,
    shadow_budget,
    _EIGVECS,
    _decode,
    _half_tables,
    _joint_distribution,
)
from shadow_reference import encode_samples

P = PauliString.from_label


def single_sample_values(index: np.ndarray, p: PauliString) -> np.ndarray:
    """Per-sample unbiased estimates of Tr[P rho] from joint indices (zeros
    where bases mismatch)."""
    digits = p.digits()
    supp = [i for i, d in enumerate(digits) if d != 0]
    if not supp:
        return np.ones(len(index))
    bases, outcomes = _decode(index, p.n)
    codes = np.array([digits[i] - 1 for i in supp], dtype=np.int8)  # X, Y, Z -> 0, 1, 2
    match = np.all(bases[:, supp] == codes, axis=1)
    vals = 3.0 ** len(supp) * np.prod(outcomes[:, supp], axis=1)
    return np.where(match, vals, 0.0)


def reference_estimate(index, p, batches):
    vals = single_sample_values(index, p)
    if batches <= 1:
        return float(np.mean(vals))
    batches = min(batches, len(vals))
    means = [chunk.mean() for chunk in np.array_split(vals, batches)]
    return float(np.median(means))


def per_sample(rho, m, rng) -> np.ndarray:
    """m samples as (m,) per-sample joint indices.  collect_shadows keeps
    indices when batches * 6^n > m, which one sample per batch forces, and
    the indices it draws do not depend on the split."""
    drawn = collect_shadows(born_table(rho), m, rng, m)
    assert drawn.shape == (m,)
    return drawn


def estimate(draw: np.ndarray, n: int, batches: int, paulis) -> np.ndarray:
    """The estimates of one draw, as a block of one: (batches, 6^n)
    histograms, or (m,) indices cut into `batches` batches (another split of
    the same indices is the same array passed with another batch count)."""
    return estimate_paulis(draw[None], n, batches, paulis)[0]


def histograms(index: np.ndarray, n: int, batches: int) -> np.ndarray:
    """(batches, 6^n) histograms of the batches of `index`; more batches than
    samples are cut to one sample per batch."""
    rows = np.split(index, np.cumsum(batch_sizes(len(index), batches))[:-1])
    return np.array([np.bincount(r, minlength=6**n) for r in rows])


def assert_drawn_from(samples: np.ndarray, probs, m, seed, batches=1):
    """`samples` are the draw of collect_shadows(., m, seed, batches) from the
    table probs: one rng.multinomial histogram per batch when batches * 6^n
    <= m, else rng.choice indices.  Returns the generator after that draw."""
    rng = np.random.default_rng(seed)
    sizes = batch_sizes(m, batches)
    if len(sizes) * len(probs) <= m:
        assert samples.shape == (len(sizes), len(probs))
        np.testing.assert_array_equal(samples.sum(axis=1), sizes)
        np.testing.assert_array_equal(samples, rng.multinomial(sizes, probs))
    else:
        assert samples.shape == (m,)
        np.testing.assert_array_equal(samples, rng.choice(len(probs), size=m, p=probs))
    return rng


def estimate_net_observables(samples: np.ndarray, net,
                             max_pairs: int = 10**6) -> dict[tuple[int, int], float]:
    """Estimates of Tr[(H_i - H_j) rho] for every net member pair.

    Built from the per-string estimates by linearity, so the output is exactly
    antisymmetric and vanishes on the diagonal.
    """
    if net.size**2 > max_pairs:
        raise ValueError(f"net has {net.size}^2 pairs, over the cap {max_pairs}")
    f = net.values(np.arange(net.size)) @ estimate(samples, net.support[0].n, 1, net.support)
    return {(i, j): float(f[i] - f[j]) for i in range(net.size) for j in range(net.size)}


def test_zero_state_z_basis_always_plus():
    rho = np.diag([1.0, 0.0]).astype(complex)
    bases, outcomes = _decode(per_sample(rho, 500, np.random.default_rng(0)), 1)
    zmask = bases[:, 0] == 2
    assert zmask.sum() > 100
    assert np.all(outcomes[zmask, 0] == 1)


def test_maximally_mixed_outcomes_uniform():
    rho = np.eye(2, dtype=complex) / 2
    _, outcomes = _decode(per_sample(rho, 10000, np.random.default_rng(1)), 1)
    mean = outcomes[:, 0].astype(float).mean()
    assert abs(mean) <= 3 / math.sqrt(10000)


def test_basis_words_uniform_chi_squared():
    rho = np.eye(4, dtype=complex) / 4
    m = 9000
    bases, _ = _decode(per_sample(rho, m, np.random.default_rng(2)), 2)
    codes = bases[:, 0] * 3 + bases[:, 1]
    counts = np.bincount(codes, minlength=9)
    expected = m / 9
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = 8
    assert chi2 <= dof + 3 * math.sqrt(2 * dof)


def test_single_sample_estimator_examples():
    rho = np.diag([1.0, 0.0]).astype(complex)
    samples = collect_shadows(born_table(rho), 20000, np.random.default_rng(3))
    # P = Z: expectation 1 (3 * 1/3 * 1); P = X: expectation 0
    assert estimate(samples, 1, 1, [P("Z"), P("X")]) == pytest.approx([1.0, 0.0], abs=0.05)


def test_unbiasedness_exact_enumeration():
    # sum the estimator against the exact joint distribution, n <= 2
    rng = np.random.default_rng(4)
    for n in (1, 2):
        h = random_hamiltonian(n, n, rng)
        rho = gibbs_density(h, 1.0)
        probs = _joint_distribution(rho, n)
        dim = 2**n
        rows_b = []
        rows_o = []
        for flat in range(len(probs)):
            b, o = divmod(flat, dim)
            rows_b.append([(b // 3 ** (n - 1 - i)) % 3 for i in range(n)])
            rows_o.append([1 - 2 * ((o >> (n - 1 - i)) & 1) for i in range(n)])
        full = encode_samples(np.array(rows_b, dtype=np.int8), np.array(rows_o, dtype=np.int8))
        paulis = enumerate_local_paulis(n, n)
        for p, truth in zip(paulis, pauli_trace_inners(paulis, rho).real):
            expectation = float(np.dot(single_sample_values(full, p), probs))
            assert expectation == pytest.approx(truth, abs=1e-10)


def test_estimates_bounded_and_identity_exact():
    rho = gibbs_density(random_hamiltonian(2, 2, 5), 1.0)
    batches = mom_batches(2, 2, 0.05)
    samples = collect_shadows(born_table(rho), 2000, np.random.default_rng(6), batches)
    paulis = enumerate_local_paulis(2, 2)
    est = estimate(samples, 2, batches, paulis)
    assert paulis[0] == P("II") and est[0] == 1.0
    for p, v in zip(paulis, est):
        assert abs(v) <= 3.0 ** p.weight + 1e-12


def test_random_gibbs_estimates_match_oracle():
    h = random_hamiltonian(2, 2, 7)
    rho = gibbs_density(h, 1.0)
    samples = collect_shadows(born_table(rho), 60000, np.random.default_rng(7))
    paulis = enumerate_local_paulis(2, 2, include_identity=False)
    errors = np.abs(estimate(samples, 2, 1, paulis) - pauli_trace_inners(paulis, rho).real)
    # 5 sigma of the single-sample spread
    sigma = math.sqrt(9.0 / int(samples.sum()))
    assert np.all(errors <= 5 * max(sigma, 1e-3) + 0.02)


def test_budget_formula_scaling():
    base = shadow_budget(3, 2, 0.1, 0.05)
    half = shadow_budget(3, 2, 0.05, 0.05)
    assert half / base == pytest.approx(4.0, rel=1e-3)
    # linear growth in k 3^k at n = 1 (log factor is k-free there)
    b1 = shadow_budget(1, 1, 0.1, 0.05)
    # k must stay <= n, so compare through the formula pieces instead
    assert b1 == math.ceil(4.0 * 3 * 1 * math.log(100 / 0.05) / 0.01)
    with pytest.raises(ValueError):
        shadow_budget(3, 0, 0.1, 0.05)
    with pytest.raises(ValueError):
        shadow_budget(3, 2, 0.0, 0.05)


@pytest.mark.parametrize("eps", [1e-200, 1e-160])
def test_budget_past_the_float_range_names_the_accuracy(eps):
    # 1e-200 squares to 0, and 1e-160 squares to a subnormal the count
    # overflows against
    with pytest.raises(ValueError, match=f"accuracy {eps:.3g}"):
        shadow_budget(3, 2, eps, 0.05)


def test_budget_linear_in_weight_factor():
    # ratio of budgets at fixed log argument: force it by comparing n=1 k=1
    # against the closed form for k=2 with the same log term
    log_term = math.log(100 * 1**1 / 0.05)
    m1 = 4.0 * 3**1 * 1 * log_term / 0.01
    m2 = 4.0 * 3**2 * 2 * log_term / 0.01
    assert m2 / m1 == pytest.approx((2 * 9) / 3)


def test_median_of_means_no_worse_on_coverage():
    h = random_hamiltonian(3, 2, 9)
    rho = gibbs_density(h, 1.0)
    paulis = enumerate_local_paulis(3, 2, include_identity=False)
    reps = 12
    eps = 0.1
    m = shadow_budget(3, 2, eps, 0.05)
    mom_ok = mean_ok = 0
    rng = np.random.default_rng(10)
    batches = mom_batches(3, 2, 0.05)
    truth = pauli_trace_inners(paulis, rho).real
    for _ in range(reps):
        samples = collect_shadows(born_table(rho), m, rng, batches)
        pooled = samples.sum(axis=0, keepdims=True)   # the batch histograms, summed
        mom_ok += np.max(np.abs(estimate(samples, 3, batches, paulis) - truth)) <= eps
        mean_ok += np.max(np.abs(estimate(pooled, 3, 1, paulis) - truth)) <= eps
    assert mom_ok >= mean_ok - 1
    assert mom_ok == reps


def test_mom_batch_formula():
    assert mom_batches(3, 2, 0.05) == 2 * math.ceil(math.log(2 * 100 * 9 / 0.05))


def test_empty_samples_rejected():
    with pytest.raises(ValueError):
        estimate(encode_samples(np.zeros((0, 1), dtype=np.int8),
                                np.zeros((0, 1), dtype=np.int8)), 1, 1, [P("Z")])
    with pytest.raises(ValueError):
        collect_shadows(born_table(np.eye(2, dtype=complex) / 2), 0, np.random.default_rng(0))


def test_estimates_exact_up_to_the_float_bound():
    # every partial sum is at most 3^n times its batch's size: at n = 2 a
    # batch that takes 9 size to 2^53 is refused, and one just under it gives
    # the exact integer sums, each mean rounded once
    n, rng = 2, np.random.default_rng(1500)
    probs = born_table(gibbs_density(random_hamiltonian(n, 2, rng), 0.7))
    paulis = enumerate_local_paulis(n, 2)
    under = (2**53 - 1) // 9
    counts = rng.multinomial([under, 1000, under - 7], probs)
    every = np.arange(6**n)
    ref = []
    for p in paulis:
        values = single_sample_values(every, p).astype(int).tolist()
        means = sorted(sum(c * v for c, v in zip(row, values)) / sum(row)
                       for row in counts.tolist())
        ref.append(means[1])
    assert estimate(counts, n, 3, paulis).tolist() == ref
    counts[2, 0] += 8   # batch 2 now holds under + 1 samples
    assert 9 * int(counts[2].sum()) >= 2**53
    with pytest.raises(ValueError, match="2\\^53"):
        estimate(counts, n, 3, paulis)


def test_batch_count_below_one_rejected_and_above_m_clamped():
    rho = np.eye(4, dtype=complex) / 4
    samples = collect_shadows(born_table(rho), 5, np.random.default_rng(0))
    paulis = enumerate_local_paulis(2, 2)
    for batches in (0, -3):
        with pytest.raises(ValueError, match="batch"):
            collect_shadows(born_table(rho), 5, np.random.default_rng(0), batches)
        with pytest.raises(ValueError, match="batch"):
            estimate(samples, 2, batches, paulis)
    clamped = collect_shadows(born_table(rho), 5, np.random.default_rng(0), 9)
    np.testing.assert_array_equal(clamped, samples)   # indices: the draw ignores the split
    np.testing.assert_array_equal(batch_sizes(5, 9), np.ones(5))
    np.testing.assert_array_equal(estimate(clamped, 2, 9, paulis), estimate(samples, 2, 5, paulis))


def test_net_observable_estimates():
    support = (P("ZI"), P("IZ"))
    net = HamiltonianNet(support, 1.0)  # grid {-1, 0, 1}, 9 members
    h = random_hamiltonian(2, 2, 11)
    rho = gibbs_density(h, 1.0)
    samples = collect_shadows(born_table(rho), 40000, np.random.default_rng(11))
    obs = estimate_net_observables(samples, net)
    assert all(obs[(i, i)] == 0.0 for i in range(net.size))
    for i, j in itertools.product(range(net.size), repeat=2):
        assert obs[(i, j)] == pytest.approx(-obs[(j, i)], abs=1e-12)
    # triangle bound against the exact values: 200 n^k max per-string error
    truth = pauli_trace_inners(support, rho).real
    per_string_err = np.max(np.abs(estimate(samples, 2, 1, support) - truth))
    for i, j in itertools.product(range(net.size), repeat=2):
        hi, hj = net_member(net, i), net_member(net, j)
        exact = sum((hi.coeffs.get(p, 0.0) - hj.coeffs.get(p, 0.0)) * t
                    for p, t in zip(support, truth))
        assert abs(obs[(i, j)] - exact) <= 200 * 2**2 * per_string_err + 1e-9


@pytest.mark.parametrize("n, k, delta", [(1, 1, 0.1), (2, 2, 0.1), (3, 2, 0.05), (4, 3, 0.05)])
def test_estimate_paulis_equals_per_string_loop(n, k, delta):
    # n = 1 leaves the first half of the qubits empty; each split of the
    # indices is also estimated from its bincounted batch histograms
    rho = gibbs_density(random_hamiltonian(n, k, 300 + n), 0.8)
    paulis = enumerate_local_paulis(n, k)
    for m in (7, 1001):
        samples = per_sample(rho, m, np.random.default_rng(m + n))
        for batches in (1, 5, mom_batches(n, k, delta)):
            assert m % batches or batches == 1
            ref = np.array([reference_estimate(samples, p, batches) for p in paulis])
            hist = histograms(samples, n, batches)
            for draw, split in ((samples, batches), (hist, len(hist))):
                np.testing.assert_array_equal(estimate(draw, n, split, paulis), ref)
                assert estimate(draw, n, split, paulis[-1:])[0] == ref[-1]


def kron_joint_distribution(rho, n):
    """Born table by the literal kron loop over the 3^n basis words."""
    probs = np.empty(3**n * 2**n)
    basis_weight = 3.0**-n
    for b in range(3**n):
        digits = [(b // 3 ** (n - 1 - i)) % 3 for i in range(n)]
        m = np.array([[1.0]], dtype=complex)
        for d in digits:
            m = np.kron(m, _EIGVECS[d])
        block = np.einsum("ij,jk,ki->i", m.conj().T, rho, m).real
        probs[b * 2**n:(b + 1) * 2**n] = np.clip(block, 0.0, None) * basis_weight
    return probs / probs.sum()


def random_density(n, rng):
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contracted_joint_distribution_matches_kron_loop(n):
    rng = np.random.default_rng(800 + n)
    for rho in (gibbs_density(random_hamiltonian(n, min(n, 2), rng), 1.1),
                random_density(n, rng)):
        np.testing.assert_allclose(_joint_distribution(rho, n),
                                   kron_joint_distribution(rho, n), rtol=0, atol=1e-14)


def test_joint_distribution_rejects_non_psd_state():
    rho = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="PSD"):
        _joint_distribution(rho, 1)
    with pytest.raises(ValueError, match="PSD"):
        born_table(rho)
    # rounding-level negative mass is clipped, as before
    probs = _joint_distribution(np.diag([1.0 + 1e-14, -1e-14]).astype(complex), 1)
    assert probs.min() == 0.0 and probs.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_non_unit_trace_state_rejected(n):
    rho = random_density(n, np.random.default_rng(860 + n))
    for scaled in (2 * rho, rho / 2):
        with pytest.raises(ValueError, match="unit trace"):
            _joint_distribution(scaled, n)
        with pytest.raises(ValueError, match="unit trace"):
            born_table(scaled)
    # trace 1 up to rounding still draws, from the table _joint_distribution returns
    for nearly in (rho * (1 + 1e-12), rho * (1 - 1e-12)):
        probs = _joint_distribution(nearly, n)
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert_drawn_from(collect_shadows(born_table(nearly), 50, 3), probs, 50, 3)


def bad_tables():
    """One-qubit Born tables (6 entries) that every draw must refuse."""
    base = np.full(6, 1.0 / 6.0)
    for name, entry, value in (("nan", 2, np.nan), ("+inf", 0, np.inf), ("-inf", 5, -np.inf),
                               ("negative", 1, -0.1), ("off-sum", 3, 0.5)):
        table = base.copy()
        table[entry] = value
        if name == "negative":
            table[4] += 0.1 + 1.0 / 6.0   # still sums to 1
        yield pytest.param(table, id=name)
    yield pytest.param(np.array([np.inf, -np.inf, 0.5, 0.5, 0.0, 0.0]), id="+inf-and-inf")


@pytest.mark.parametrize("table", bad_tables())
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")   # inf - inf
def test_bad_tables_refused_by_both_draws(table):
    assert not (np.isfinite(table).all() and (table >= 0).all()
                and abs(table.sum() - 1.0) <= np.sqrt(np.finfo(float).eps))
    rng = np.random.default_rng(0)
    # histograms when batches * 6^n <= m, per-sample indices otherwise
    for m, batches in ((600, 2), (5, 1)):
        with pytest.raises(ValueError, match="probabilities"):
            collect_shadows(table, m, rng, batches)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3])
def test_collect_shadows_equals_digit_loop_over_choice(n):
    rho = gibbs_density(random_hamiltonian(n, min(n, 2), 950 + n), 0.6)
    m = 2000
    samples = collect_shadows(born_table(rho), m, np.random.default_rng(n), m)   # the index regime
    bases, outcomes = _decode(samples, n)
    flat = np.random.default_rng(n).choice(6**n, size=m, p=_joint_distribution(rho, n))
    b, o = flat // 2**n, flat % 2**n
    for i in range(n):
        np.testing.assert_array_equal(bases[:, i], (b // 3 ** (n - 1 - i)) % 3)
        np.testing.assert_array_equal(outcomes[:, i], 1 - 2 * ((o >> (n - 1 - i)) & 1))


@pytest.mark.parametrize("n, m, batch_counts", [
    (2, 7, (1, 2, 3)),
    (2, 5000, (1, 3, 18)),
    (3, 1001, (1, 6, 100)),
    (4, 5000, (1, 7, 27)),
    (5, 1001, (1, 5, 24)),
    (6, 997, (1, 5)),
])
def test_index_kernel_equals_per_string_reference(n, m, batch_counts):
    rho = gibbs_density(random_hamiltonian(n, 2, 700 + n), 0.9)
    samples = per_sample(rho, m, np.random.default_rng(710 + n))
    paulis = enumerate_local_paulis(n, min(n, 3))
    for batches in batch_counts:
        assert batches == 1 or m % batches
        ref = np.array([reference_estimate(samples, p, batches) for p in paulis])
        np.testing.assert_array_equal(estimate(samples, n, batches, paulis), ref)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_index_estimates_equal_their_bincounted_histograms(n):
    # the same samples as per-sample indices (the per-batch gather) and
    # bincounted into batch histograms (the half-split contraction)
    rho = gibbs_density(random_hamiltonian(n, 2, 1500 + n), 0.8)
    samples = per_sample(rho, 1001, np.random.default_rng(1510 + n))
    paulis = enumerate_local_paulis(n, min(n, 3))
    for batches in (1, 6, 7):
        hist = histograms(samples, n, batches)
        np.testing.assert_array_equal(hist.sum(axis=1), batch_sizes(1001, batches))
        expected = estimate(hist, n, batches, paulis)
        np.testing.assert_array_equal(estimate(samples, n, batches, paulis), expected)
        # a histogram block is (B, batches, 6^n): any other last axis or split is refused
        for bad, split in ((hist[:, :-1], batches), (np.pad(hist, ((0, 0), (0, 1))), batches),
                           (hist, batches + 1)):
            with pytest.raises(ValueError, match="histogram block"):
                estimate(bad, n, split, paulis)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_shadow_rows_round_trip_through_index(n):
    rng = np.random.default_rng(720 + n)
    bases = rng.integers(0, 3, size=(300, n)).astype(np.int8)
    outcomes = (1 - 2 * rng.integers(0, 2, size=(300, n))).astype(np.int8)
    samples = encode_samples(bases, outcomes)
    assert samples.shape == (300,) and samples.max() < 6**n
    shift = np.arange(n - 1, -1, -1)
    np.testing.assert_array_equal(
        samples, (bases @ 3**shift) * 2**n + (outcomes < 0) @ 2**shift)
    np.testing.assert_array_equal(_decode(samples, n)[0], bases)
    np.testing.assert_array_equal(_decode(samples, n)[1], outcomes)
    drawn = per_sample(np.eye(2**n, dtype=complex) / 2**n, 300, rng)
    back = encode_samples(*_decode(drawn, n))
    assert back.dtype == drawn.dtype
    np.testing.assert_array_equal(back, drawn)


def test_empty_shadow_file_rejected():
    # what an empty shadow file used to read as: 1-D empty arrays, not (0, n) rows
    with pytest.raises(ValueError, match=r"\(m, n\) rows"):
        encode_samples(np.array([], dtype=np.int8), np.array([], dtype=np.int8))


def test_half_tables_built_once_per_string_list(monkeypatch):
    built = []
    value_table = shadows._value_table
    monkeypatch.setattr(shadows, "_value_table", lambda rows: built.append(rows) or value_table(rows))
    _half_tables.cache_clear()
    n = 3
    rho = gibbs_density(random_hamiltonian(n, 2, 890), 0.7)
    samples = per_sample(rho, 1001, np.random.default_rng(891))
    paulis = enumerate_local_paulis(n, 2)
    others = [P("XYZ"), P("ZIX"), P("IIY"), P("YYI")]
    for batches in (1, 6):
        for strings in (paulis, tuple(paulis), others):
            ref = np.array([reference_estimate(samples, p, batches) for p in strings])
            np.testing.assert_array_equal(estimate(samples, n, batches, strings), ref)
    assert len(built) == 4   # two halves of each distinct string list
    for table, pick in _half_tables(n, tuple(p.code for p in paulis)):
        assert not table.flags.writeable and not pick.flags.writeable
    assert len(built) == 4


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_collect_shadows_draws_histograms_iff_they_are_no_larger(n):
    rho = random_density(n, np.random.default_rng(1100 + n))
    probs = born_table(rho)
    np.testing.assert_array_equal(probs, _joint_distribution(rho, n))
    for m, batches in ((6**n, 1), (6**n - 1, 1), (3 * 6**n, 3), (3 * 6**n - 1, 3),
                       (3 * 6**n + 2, 3), (20, 30)):
        ours = np.random.default_rng(m + batches)
        samples = collect_shadows(probs, m, ours, batches)
        assert (samples.ndim == 2) == (min(batches, m) * 6**n <= m)
        assert (int(samples.sum()) if samples.ndim == 2 else len(samples)) == m
        ref = assert_drawn_from(samples, probs, m, m + batches, batches)
        assert ours.bit_generator.state == ref.bit_generator.state


def test_born_table_keeps_the_state_checks():
    with pytest.raises(ValueError, match="PSD"):
        born_table(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="unit trace"):
        born_table(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="power of 2"):
        born_table(np.eye(3, dtype=complex) / 3)
    with pytest.raises(ValueError, match="6\\^n"):
        collect_shadows(np.full(7, 1 / 7), 10, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_histogram_estimates_equal_index_path_on_expanded_samples(n):
    rng = np.random.default_rng(1200 + n)
    rho = gibbs_density(random_hamiltonian(n, min(n, 2), rng), 0.7)
    probs = born_table(rho)
    paulis = enumerate_local_paulis(n, min(n, 3))
    # drawn histograms at several batch counts, then hand-made ones whose
    # batch count is cut to m (the clamp), which the draw never makes
    cases = [collect_shadows(born_table(rho), m, rng, batches)
             for m, batches in ((6**n, 1), (5 * 6**n + 3, 5), (18 * 6**n + 11, 18))]
    cases += [rng.multinomial(batch_sizes(m, batches), probs) for m, batches in ((7, 10), (3, 40))]
    for samples, batches in zip(cases, (1, 5, 18, 10, 40)):
        assert samples.ndim == 2
        # expand each batch's histogram to samples, in a shuffled order
        rows = [rng.permutation(np.repeat(np.arange(6**n), row)) for row in samples]
        index = np.concatenate(rows).astype(np.min_scalar_type(6**n))
        np.testing.assert_array_equal(batch_sizes(len(index), batches), samples.sum(axis=1))
        np.testing.assert_array_equal(estimate(samples, n, len(samples), paulis),
                                      estimate(index, n, batches, paulis))
        ref = np.array([reference_estimate(index, p, batches) for p in paulis])
        np.testing.assert_array_equal(estimate(samples, n, len(samples), paulis), ref)


@pytest.mark.parametrize("n, m", [(2, 50000), (3, 200000)])
def test_histogram_draw_law(n, m):
    rho = gibbs_density(random_hamiltonian(n, 2, 1300 + n), 1.0)
    batches = mom_batches(n, 2, 0.05)
    samples = collect_shadows(born_table(rho), m, np.random.default_rng(1310 + n), batches)
    assert samples.shape == (batches, 6**n)
    np.testing.assert_array_equal(samples.sum(axis=1),
                                  [len(c) for c in np.array_split(np.arange(m), batches)])
    # the pooled histogram against m p: a chi-square test over the bins
    expected = m * born_table(rho)
    chi2 = float(np.sum((samples.sum(axis=0) - expected) ** 2 / expected))
    dof = 6**n - 1
    assert chi2 <= dof + 3 * math.sqrt(2 * dof)


def test_histogram_and_index_estimates_share_their_law():
    # median-of-means estimates from drawn histograms and from drawn indices:
    # equal means and variances over many seeds, within 4 sigma
    n, m, batches, reps = 2, 2000, 5, 300
    rho = gibbs_density(random_hamiltonian(n, 2, 1400), 1.0)
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    hist, index = [], []
    for seed in range(reps):
        drawn = collect_shadows(born_table(rho), m, np.random.default_rng((1401, seed)), batches)
        assert drawn.shape == (batches, 6**n)
        hist.append(estimate(drawn, n, batches, paulis))
        drawn = per_sample(rho, m, np.random.default_rng((1402, seed)))
        index.append(estimate(drawn, n, batches, paulis))
    hist, index = np.array(hist), np.array(index)

    def moments(x):
        mean, var = x.mean(axis=0), x.var(axis=0, ddof=1)
        fourth = np.mean((x - mean) ** 4, axis=0)
        return mean, var, var / reps, (fourth - var**2) / reps

    mean_h, var_h, se2_mean_h, se2_var_h = moments(hist)
    mean_i, var_i, se2_mean_i, se2_var_i = moments(index)
    assert np.all(np.abs(mean_h - mean_i) <= 4 * np.sqrt(se2_mean_h + se2_mean_i))
    assert np.all(np.abs(var_h - var_i) <= 4 * np.sqrt(se2_var_h + se2_var_i))


def _batch_draws(samples: np.ndarray, batches: int) -> list[np.ndarray]:
    """Each batch of a draw as a one-batch draw, whose estimate is its mean."""
    if samples.ndim == 2:
        return [row[None] for row in samples]
    return np.split(samples, np.cumsum(batch_sizes(len(samples), batches))[:-1])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_estimates_invariant_under_qubit_permutation(n):
    # samples with qubit i moved to perm[i] estimate the strings moved the same
    # way exactly, batch by batch: every batch sum is an integer, and a sample
    # keeps its value on the moved string
    rng = np.random.default_rng(930 + n)
    table = born_table(gibbs_density(random_hamiltonian(n, 2, rng), 0.8))
    paulis = enumerate_local_paulis(n, min(n, 3))
    every = _decode(np.arange(6**n), n)
    batches = 4
    for perm in (rng.permutation(n), np.arange(n)[::-1]):
        bases, outcomes = np.empty_like(every[0]), np.empty_like(every[1])
        bases[:, perm], outcomes[:, perm] = every
        where = encode_samples(bases, outcomes)   # joint index j moves to where[j]
        moved = []
        for p in paulis:
            letters = np.empty(n, dtype=int)
            letters[perm] = p.digits()
            moved.append(PauliString.from_label("".join("IXYZ"[d] for d in letters)))
        for m in (batches * 6**n, batches * 6**n - 1):   # batch histograms, then indices
            samples = collect_shadows(table, m, rng, batches)
            assert (samples.ndim == 2) == (m == batches * 6**n)
            if samples.ndim == 2:
                permuted = np.zeros_like(samples)
                permuted[:, where] = samples
            else:
                permuted = where[samples].astype(samples.dtype)
            np.testing.assert_array_equal(estimate(permuted, n, batches, moved),
                                          estimate(samples, n, batches, paulis))
            for one, moved_one in zip(_batch_draws(samples, batches),
                                      _batch_draws(permuted, batches)):
                np.testing.assert_array_equal(estimate(moved_one, n, 1, moved),
                                              estimate(one, n, 1, paulis))
