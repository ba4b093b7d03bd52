"""Classical shadows from random Pauli-basis measurements on single copies.

Each sample picks one of the 3^n basis words uniformly, measures every qubit
in its letter's eigenbasis, and records the +-1 outcomes; a sample is one
joint index over the 6^n (basis word, outcome word) pairs.  The
single-sample estimator for a string P multiplies 3*outcome over supp(P)
when the basis word matches there and contributes 0 otherwise, which keeps
it unbiased with a fixed denominator; aggregation is median of means.

The median-of-means split is fixed when the samples are drawn, and an
estimate reads only each batch's histogram over the joint indices.  The
histograms of iid samples cut at np.array_split boundaries are independent
Multinomial(batch size, p) draws, so `collect_shadows` draws them directly
when they hold no more entries than the samples would, and draws per-sample
indices otherwise.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from .constants import MOM_BATCH_CONSTANT, SHADOW_SAMPLE_CONSTANT
from .oracle import clip_distribution
from .paulis import PauliString

_SQ2 = 1.0 / math.sqrt(2.0)
_EIGVECS = np.array([
    [[_SQ2, _SQ2], [_SQ2, -_SQ2]],              # X
    [[_SQ2, _SQ2], [1j * _SQ2, -1j * _SQ2]],    # Y
    [[1, 0], [0, 1]],                           # Z
], dtype=complex)
# _BORN[2b + o, 2i + j] = conj(V_b[i, o]) V_b[j, o]: contracted with one
# qubit's rho[i, j], row 2b + o is the probability of outcome o in basis b
_BORN = np.einsum("bio,bjo->boij", _EIGVECS.conj(), _EIGVECS).reshape(6, 4)
_GUIDE_BUCKETS = 2**14  # u in [j, j + 1) / 2^14 falls in bucket j of the draw
_PROB_SUM_TOL = np.sqrt(np.finfo(float).eps)   # rng.choice's tolerance on sum(p) - 1


def batch_sizes(m: int, batches: int) -> np.ndarray:
    """Sizes of the np.array_split of m samples into `batches` batches; more
    batches than samples are cut to one sample per batch."""
    if batches < 1:
        raise ValueError(f"need at least one batch, got {batches}")
    batches = min(batches, max(m, 1))
    size, extra = divmod(m, batches)
    sizes = np.full(batches, size)
    sizes[:extra] += 1
    return sizes


class ShadowData:
    """Shadow samples in their median-of-means batches (`sizes`, in
    np.array_split order), held either as per-sample joint indices `index`
    (m,) or as per-batch histograms `counts` (batches, 6^n); the other is None.

    A joint index is b 2^n + o, with b the basis word in base 3 (X, Y, Z =
    0, 1, 2, first qubit most significant) and o the outcome word in binary
    (bit 1 for outcome -1).  `ShadowData(bases, outcomes, batches)` encodes
    (m, n) rows; `bases` and `outcomes` decode per-sample indices again.
    """

    def __init__(self, bases: np.ndarray, outcomes: np.ndarray, batches: int = 1):
        bases, outcomes = np.asarray(bases), np.asarray(outcomes)
        if bases.ndim != 2 or bases.shape != outcomes.shape:
            raise ValueError("bases and outcomes must be (m, n) rows of one shape, "
                             f"got {bases.shape} and {outcomes.shape}")
        n = bases.shape[1]
        shift = np.arange(n - 1, -1, -1)
        words = bases.astype(np.int64) @ 3**shift << n | (outcomes < 0) @ (1 << shift)
        self.n, self.counts = n, None
        self.index = words.astype(np.min_scalar_type(6**n))
        self.sizes = batch_sizes(len(words), batches)

    @classmethod
    def from_index(cls, index: np.ndarray, n: int, batches: int = 1) -> ShadowData:
        samples = cls.__new__(cls)
        samples.n, samples.index, samples.counts = n, index, None
        samples.sizes = batch_sizes(len(index), batches)
        return samples

    @classmethod
    def from_counts(cls, counts: np.ndarray, n: int) -> ShadowData:
        samples = cls.__new__(cls)
        samples.n, samples.index, samples.counts = n, None, counts
        samples.sizes = counts.sum(axis=1)
        return samples

    @property
    def bases(self) -> np.ndarray:
        """(m, n) basis letters in {0, 1, 2}."""
        shift = np.arange(self.n - 1, -1, -1)
        return ((self._rows() >> self.n)[:, None] // 3**shift % 3).astype(np.int8)

    @property
    def outcomes(self) -> np.ndarray:
        """(m, n) outcomes in {-1, +1}."""
        shift = np.arange(self.n - 1, -1, -1)
        return (1 - 2 * (self._rows()[:, None] >> shift & 1)).astype(np.int8)

    def _rows(self) -> np.ndarray:
        if self.index is None:
            raise ValueError("samples drawn as batch histograms have no per-sample rows")
        return self.index.astype(np.int64)

    def __len__(self) -> int:
        return int(self.sizes.sum())


def _joint_distribution(rho: np.ndarray, n: int) -> np.ndarray:
    """Exact probabilities over (basis word, outcome word), flattened, of a
    state or of each state of a stack (..., 2^n, 2^n).

    Each state becomes a tensor with one (row bit, column bit) axis per
    qubit, and _BORN turns each into the qubit's six (basis, outcome) rows
    in turn, as one (rest, 4) @ (4, 6) matmul per state.  A stacked matmul
    rounds every state as its own call does, at any stack size (a tensordot
    of one state would take a vector-matrix product at n = 1).
    """
    lead = rho.shape[:-2]
    pairs = np.arange(2 * n).reshape(2, n).T.ravel()
    t = rho.reshape(-1, *(2,) * 2 * n).transpose(0, *(pairs + 1)).reshape(-1, *(4,) * n)
    for _ in range(n):   # qubit axes rotate back into order
        rest = t.shape[2:]
        t = (np.moveaxis(t, 1, -1).reshape(len(t), -1, 4) @ _BORN.T).reshape(len(t), *rest, 6)
    words = np.concatenate([np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)])
    probs = t.real.reshape(-1, *(3, 2) * n).transpose(0, *(words + 1)).reshape(*lead, -1)
    return clip_distribution(probs * 3.0**-n)


def _check_probs(probs: np.ndarray) -> None:
    """Two reductions: a NaN or infinite entry makes the sum NaN or infinite
    (+inf beside -inf with numpy's invalid-value warning), which fails the
    first test."""
    if not (abs(probs.sum() - 1.0) <= _PROB_SUM_TOL and probs.min() >= 0):
        raise ValueError("probabilities must be finite, nonnegative and sum to 1")


def _draw_indices(probs: np.ndarray, m: int, rng) -> np.ndarray:
    """rng.choice(len(probs), size=m, p=probs): the same checks, indices and
    generator state.  u and the cdf are scaled by a power of two, which is
    exact, and every u in guide bucket j maps into [edges[j], edges[j + 1]],
    with edges[j] the number of cdf entries <= j.  Since cdf[i] <= j exactly
    when ceil(cdf[i]) <= j, a histogram of the ceilings counts the edges.
    A bucket whose edges differ holds len(probs): search there.
    """
    _check_probs(probs)
    cdf = probs.cumsum()
    cdf = cdf / cdf[-1] * _GUIDE_BUCKETS   # nondecreasing, ends at exactly 2^14
    u = rng.random(m) * _GUIDE_BUCKETS
    edges = np.bincount(np.ceil(cdf).astype(np.intp), minlength=_GUIDE_BUCKETS + 1).cumsum()
    guide = np.where(edges[:-1] == edges[1:], edges[:-1], len(probs))
    idx = guide.astype(np.min_scalar_type(len(probs)))[u.astype(np.int16)]   # small gathers
    search = np.flatnonzero(idx == len(probs))
    idx[search] = cdf.searchsorted(u[search], side="right")
    return idx


def born_table(rho: np.ndarray) -> np.ndarray:
    """The exact Born probabilities of rho, or of each state of a stack
    (..., d, d), over the 6^n joint indices, as `collect_shadows` draws from
    them; a state sampled many times can build its table once.  Row i of a
    stack's tables equals the table of state i alone, bit for bit."""
    dim = rho.shape[-1]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return _joint_distribution(rho, n)


def collect_shadows(rho: np.ndarray, m: int, rng, batches: int = 1) -> ShadowData:
    """Draw m single-copy samples from the exact Born distribution of rho (a
    density matrix, or its `born_table`), split into `batches` batches for
    median of means.

    Each batch is one Multinomial(batch size, p) histogram when batches 6^n
    <= m, so the histograms hold no more entries than the samples would;
    otherwise the m joint indices are drawn as rng.choice draws them.
    Measured with one BLAS thread (2 vCPUs, weight <= 2 strings, batches
    18-22), draw plus `estimate_paulis` took, histograms against indices:
    0.11 vs 0.21 ms at n=2, m=2000; 0.91 vs 1.68 ms at n=3, m=70547;
    2.6 vs 1.2 ms at n=4, m=2e4 and 3.5 vs 5.4 ms at m=1e5; 11 vs 4.4 ms
    at n=5, m=2e4 and 23 vs 57 ms at m=5e5.  The histograms overtake the
    indices at m of about 0.8, 2-3.5 and 4.6 times batches 6^n at n = 5, 4
    and 3 (below the crossover at n=3 they lose by at most 0.13 ms), and
    everywhere at n=2.
    """
    if m < 1:
        raise ValueError(f"need at least one sample, got {m}")
    rng = np.random.default_rng(rng)
    probs = rho if rho.ndim == 1 else born_table(rho)
    n = round(math.log(len(probs), 6))
    if len(probs) != 6**n:
        raise ValueError(f"a Born table has 6^n entries, got {len(probs)}")
    sizes = batch_sizes(m, batches)
    if len(sizes) * len(probs) <= m:
        _check_probs(probs)
        return ShadowData.from_counts(rng.multinomial(sizes, probs), n)
    return ShadowData.from_index(_draw_indices(probs, m, rng), n, batches)


def _value_table(letters: np.ndarray) -> np.ndarray:
    """(6^q, rows) single-sample values of q-letter rows (0..3 = I, X, Y, Z)
    at every joint index of q qubits, as floats (the values are integers).

    Qubit i contributes 1 for I, and 3 * outcome where its basis matches the
    letter, 0 elsewhere.
    """
    q = letters.shape[1]
    every = ShadowData.from_index(np.arange(6**q), q)
    tables = np.ones((q, 4, 6**q))   # [qubit, letter, joint index]
    tables[:, 1:] = np.where(every.bases.T[:, None] == np.arange(3)[:, None],
                             3 * every.outcomes.T[:, None], 0)
    out = np.ones((6**q, len(letters)))
    for i in range(q):
        out *= tables[i, letters[:, i]].T
    return out


@functools.lru_cache(maxsize=16)
def _half_tables(n: int, codes: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(value table, pick) for each half of the qubits of the strings `codes`:
    the value table of the distinct half rows, and each string's row in it.
    Built once per string list, so the arrays are read-only."""
    letters = np.array([PauliString(n, c).digits() for c in codes], dtype=np.intp).reshape(-1, n)
    halves = []
    for part in (letters[:, :n // 2], letters[:, n // 2:]):
        rows, pick = np.unique(part, axis=0, return_inverse=True)
        table, pick = _value_table(rows), pick.reshape(-1)
        table.flags.writeable = pick.flags.writeable = False
        halves.append((table, pick))
    return tuple(halves)


def estimate_paulis(samples, paulis: Sequence[PauliString]) -> np.ndarray:
    """Median of means of the single-sample estimator, for every string at
    once, over the batches the samples were drawn in.  One ShadowData gives
    (strings,); a sequence of B sets of one split (the same batch sizes)
    gives (B, strings), from one contraction of all their histograms.

    A sample's value for a string depends only on its joint index, and it is
    the product of its values on the two halves of the qubits.  So each batch
    needs only the (strings of the first half) x (strings of the second half)
    sums of products of half values:

    - from the batches' histograms over the 6^n joint indices, two matrix
      products with the (6^(n/2), half strings) value tables contract them
      half by half.  Samples drawn as histograms carry them; per-sample
      indices are counted with one np.bincount when the histograms hold no
      more entries than one (strings, batch) block;
    - otherwise each batch gathers its samples' half values and multiplies
      the two (batch, half strings) blocks.

    Every product and partial sum is an integer of magnitude at most 3^n
    times the batch size, so the float matrix products are exact in any
    order, and the estimates equal the per-string loop's bit for bit on any
    samples with the same per-batch histograms, whatever the block.  A batch
    that takes that bound to 2^53 is a ValueError.
    """
    if isinstance(samples, ShadowData):
        return estimate_paulis([samples], paulis)[0]
    n, sizes = samples[0].n, samples[0].sizes
    if any(s.n != n or not np.array_equal(s.sizes, sizes) for s in samples):
        raise ValueError("the sample sets of one block must share n and their batch sizes")
    if sizes.sum() == 0:
        raise ValueError("empty sample list")
    if 3**n * int(sizes.max()) >= 2**53:
        raise ValueError(f"a batch of {int(sizes.max())} samples on {n} qubits "
                         "takes the partial sums past 2^53, where floats stop being exact")
    if any(p.n != n for p in paulis):
        raise ValueError(f"every string must act on the samples' {n} qubits")
    batches = len(sizes)
    (table_a, pick_a), (table_b, pick_b) = _half_tables(n, tuple(p.code for p in paulis))
    h = n // 2   # qubits 0..h-1 form the first half, h..n-1 the second
    counts = [s.counts for s in samples]
    if any(c is None for c in counts) and batches * 6**n <= len(paulis) * sizes[-1]:
        batch_of = np.repeat(np.arange(batches) * 6**n, sizes)
        counts = [c if c is not None else np.bincount(
            batch_of + s.index, minlength=batches * 6**n).reshape(batches, -1)
            for s, c in zip(samples, counts)]
    pairs = np.empty((len(samples), batches, table_a.shape[1], table_b.shape[1]))
    drawn = [i for i, c in enumerate(counts) if c is not None]
    if drawn:
        # b 2^n + o with b = (bA, bB) in base 3 and o = (oA, oB) in binary:
        # regroup the axes as ((bA, oA), (bB, oB)), the two half indices
        hist = np.array([counts[i] for i in drawn], dtype=float)
        hist = hist.reshape(-1, 3**h, 3**(n - h), 2**h, 2**(n - h))
        hist = hist.transpose(0, 1, 3, 2, 4).reshape(-1, 6**(n - h))
        pairs[drawn] = (table_a.T @ (hist @ table_b).reshape(-1, 6**h, table_b.shape[1])
                        ).reshape(len(drawn), batches, *pairs.shape[2:])
    for s, c, out in zip(samples, counts, pairs):
        if c is not None:
            continue
        index = s.index.astype(np.intp)
        words, bits = index >> n, index & (2**n - 1)
        joint_a = words // 3**(n - h) << h | bits >> (n - h)
        joint_b = words % 3**(n - h) << (n - h) | bits & (2**(n - h) - 1)
        start = 0
        for b, stop in enumerate(np.cumsum(sizes)):
            out[b] = table_a[joint_a[start:stop]].T @ table_b[joint_b[start:stop]]
            start = stop
    means = pairs[..., pick_a, pick_b] / sizes[:, None]
    if batches == 1:
        return means[:, 0]
    # the median as np.median takes it (mean of the middle pair), without its
    # NaN check, which imports numpy.ma (1.3 MB); the means are finite
    ranked = np.sort(means, axis=1)
    mid = batches // 2
    return ranked[:, mid] if batches % 2 else (ranked[:, mid - 1] + ranked[:, mid]) / 2


def mom_batches(n: int, k: int, delta: float) -> int:
    """Batch count 2 ceil(ln(2 * 100 n^k / delta)) for median of means."""
    return MOM_BATCH_CONSTANT * math.ceil(math.log(2.0 * 100.0 * n**k / delta))


def shadow_budget(n: int, k: int, eps: float, delta: float) -> int:
    """Single-copy count ceil(c_s 3^k k ln(100 n^k / delta) / eps^2)."""
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise ValueError("eps and delta must be in (0, 1)")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.ceil(
        SHADOW_SAMPLE_CONSTANT * 3**k * k * math.log(100.0 * n**k / delta) / eps**2
    )
