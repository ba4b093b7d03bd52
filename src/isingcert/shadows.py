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
when they hold no more entries than the samples would (batches 6^n <= m),
and draws per-sample indices otherwise.  A draw is a plain array, and its
shape gives its form: (batches, 6^n) histograms or (m,) joint indices.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from .constants import MOM_BATCH_CONSTANT, SHADOW_SAMPLE_CONSTANT, SHADOW_SAMPLE_HARD_CAP
from .errors import BudgetExceededError
from .oracle import clip_distribution
from .paulis import PauliString

# a Born table has 6^n entries, and building one holds complex arrays of that size
MAX_SHADOW_QUBITS = 10
# the most entries of one shadow draw, and of each array of one Pauli plan
MAX_ARRAY_ENTRIES = 2**26

_SQ2 = 1.0 / math.sqrt(2.0)
_EIGVECS = np.array([
    [[_SQ2, _SQ2], [_SQ2, -_SQ2]],              # X
    [[_SQ2, _SQ2], [1j * _SQ2, -1j * _SQ2]],    # Y
    [[1, 0], [0, 1]],                           # Z
], dtype=complex)
# _BORN[2b + o, 2i + j] = conj(V_b[i, o]) V_b[j, o]: contracted with one
# qubit's rho[i, j], row 2b + o is the probability of outcome o in basis b
_BORN = np.einsum("bio,bjo->boij", _EIGVECS.conj(), _EIGVECS).reshape(6, 4)
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


def _takes_histograms(m: int, sizes: np.ndarray, n: int) -> bool:
    """The form rule: m samples in the batches `sizes` are drawn as batch
    histograms when those hold no more entries (batches 6^n <= m)."""
    return len(sizes) * 6**n <= m


def _decode(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, n) basis letters in {0, 1, 2} and outcomes in {-1, +1} of n-qubit
    joint indices b 2^n + o: b is the basis word in base 3 (X, Y, Z = 0, 1, 2,
    first qubit most significant), o the outcome word in binary (bit 1 for -1)."""
    shift = np.arange(n - 1, -1, -1)
    index = np.asarray(index, dtype=np.int64)[:, None]
    return (index >> n) // 3**shift % 3, 1 - 2 * (index >> shift & 1)


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


def collect_shadows(probs: np.ndarray, m: int, rng, batches: int = 1) -> np.ndarray:
    """Draw m single-copy samples from a state's `born_table` `probs`, split
    into `batches` batches for median of means.

    The draw is the (batches, 6^n) Multinomial(batch size, p) histograms
    when batches 6^n <= m, so the histograms hold no more entries than the
    samples would; otherwise it is the (m,) joint indices of one rng.choice
    draw, in batches of `batch_sizes(m, batches)`.  A table that is not a
    distribution is a ValueError before either draw, with the generator
    untouched.
    """
    if m < 1:
        raise ValueError(f"need at least one sample, got {m}")
    rng = np.random.default_rng(rng)
    n = round(math.log(len(probs), 6))
    if len(probs) != 6**n:
        raise ValueError(f"a Born table has 6^n entries, got {len(probs)}")
    sizes = batch_sizes(m, batches)
    _check_probs(probs)
    if _takes_histograms(m, sizes, n):
        return rng.multinomial(sizes, probs)
    return rng.choice(len(probs), size=m, p=probs).astype(np.min_scalar_type(len(probs)))


def _value_table(letters: np.ndarray) -> np.ndarray:
    """(6^q, rows) single-sample values of q-letter rows (0..3 = I, X, Y, Z)
    at every joint index of q qubits, as floats (the values are integers).

    Qubit i contributes 1 for I, and 3 * outcome where its basis matches the
    letter, 0 elsewhere.
    """
    q = letters.shape[1]
    bases, outcomes = _decode(np.arange(6**q), q)
    tables = np.ones((q, 4, 6**q))   # [qubit, letter, joint index]
    tables[:, 1:] = np.where(bases.T[:, None] == np.arange(3)[:, None], 3 * outcomes.T[:, None], 0)
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


def exact_batch_limit(n: int) -> int:
    """The largest batch whose estimator sums stay exact on n qubits: every
    product and partial sum of `estimate_paulis` is an integer of magnitude
    at most 3^n times the batch size, and floats hold integers below 2^53."""
    return (2**53 - 1) // 3**n


def estimate_paulis(samples: np.ndarray, n: int, batches: int,
                    paulis: Sequence[PauliString]) -> np.ndarray:
    """Median of means of the single-sample estimator, for every string at
    once: one block of B draws of `collect_shadows` on n qubits, stacked as
    (B, batches, 6^n) histograms or as (B, m) joint indices cut into
    `batch_sizes(m, batches)`, gives (B, strings) from one contraction.

    A sample's value for a string depends only on its joint index, and it is
    the product of its values on the two halves of the qubits.  So each batch
    needs only the (strings of the first half) x (strings of the second half)
    sums of products of half values:

    - histograms over the 6^n joint indices take two matrix products with
      the (6^(n/2), half strings) value tables, which contract them half by
      half, and each batch's mean divides by its own histogram's total;
    - per-sample indices gather each batch's half values and multiply the
      two (batch, half strings) blocks.

    The sums are exact integers in any order, so the estimates equal the
    per-string loop's bit for bit on any samples with the same per-batch
    histograms, in either form.  A histogram block of another shape, an
    empty batch, or a batch over `exact_batch_limit` is a ValueError.
    """
    drawn = samples.ndim == 3
    if drawn and samples.shape[1:] != (batches, 6**n):
        raise ValueError(f"a histogram block is (B, {batches} batches, 6^{n} = {6**n} "
                         f"joint indices), got {samples.shape}")
    sizes = samples.sum(axis=-1) if drawn else batch_sizes(samples.shape[-1], batches)
    if sizes.min() < 1:
        raise ValueError("every median-of-means batch needs at least one sample")
    if sizes.max() > exact_batch_limit(n):
        raise ValueError(f"a batch of {int(sizes.max())} samples on {n} qubits "
                         "takes the partial sums past 2^53, where floats stop being exact")
    if any(p.n != n for p in paulis):
        raise ValueError(f"every string must act on the samples' {n} qubits")
    (table_a, pick_a), (table_b, pick_b) = _half_tables(n, tuple(p.code for p in paulis))
    h = n // 2   # qubits 0..h-1 form the first half, h..n-1 the second
    shape = (len(samples), sizes.shape[-1], table_a.shape[1], table_b.shape[1])
    if drawn:
        # b 2^n + o with b = (bA, bB) in base 3 and o = (oA, oB) in binary:
        # regroup the axes as ((bA, oA), (bB, oB)), the two half indices
        hist = samples.astype(float).reshape(-1, 3**h, 3**(n - h), 2**h, 2**(n - h))
        hist = hist.transpose(0, 1, 3, 2, 4).reshape(-1, 6**(n - h))
        pairs = (table_a.T @ (hist @ table_b).reshape(-1, 6**h, shape[3])).reshape(shape)
    else:
        pairs = np.empty(shape)
        for index, out in zip(samples, pairs):
            index = index.astype(np.intp)
            words, bits = index >> n, index & (2**n - 1)
            joint_a = words // 3**(n - h) << h | bits >> (n - h)
            joint_b = words % 3**(n - h) << (n - h) | bits & (2**(n - h) - 1)
            start = 0
            for b, stop in enumerate(np.cumsum(sizes)):
                out[b] = table_a[joint_a[start:stop]].T @ table_b[joint_b[start:stop]]
                start = stop
    means = pairs[..., pick_a, pick_b] / sizes[..., None]
    # the median as np.median takes it (mean of the middle pair), without its
    # NaN check, which imports numpy.ma (1.3 MB); the means are finite
    ranked = np.sort(means, axis=1)
    mid = shape[1] // 2
    return ranked[:, mid] if shape[1] % 2 else (ranked[:, mid - 1] + ranked[:, mid]) / 2


def mom_batches(n: int, k: int, delta: float) -> int:
    """Batch count 2 ceil(ln(2 * 100 n^k / delta)) for median of means."""
    return MOM_BATCH_CONSTANT * math.ceil(math.log(2.0 * 100.0 * n**k / delta))


def shadow_budget(n: int, k: int, eps: float, delta: float) -> int:
    """Single-copy count ceil(c_s 3^k k ln(100 n^k / delta) / eps^2); an
    accuracy whose count is not a finite float (eps^2 underflows, or the
    quotient overflows) is a ValueError."""
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise ValueError("eps and delta must be in (0, 1)")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    count = SHADOW_SAMPLE_CONSTANT * 3**k * k * math.log(100.0 * n**k / delta)
    budget = count / eps**2 if eps**2 else math.inf
    if not math.isfinite(budget):
        raise ValueError(f"accuracy {eps:.3g} needs more samples than a float can count")
    return math.ceil(budget)


def check_samples(requested) -> None:
    if requested is not None and requested < 1:
        raise ValueError(f"params.samples must be >= 1, got {requested}")


def resolve_samples(requested, nominal: int, n: int, batches: int) -> int:
    """The sample count of each shadow draw: `requested`, or the nominal
    budget when it is None.  A draw of m samples costs O(batches 6^n) while it
    takes batch histograms and O(m) once it takes per-sample indices, so a
    nominal budget is refused (BudgetExceededError) only in the second case
    and over SHADOW_SAMPLE_HARD_CAP.  Any count whose largest batch is over
    `exact_batch_limit`, or whose draw holds over MAX_ARRAY_ENTRIES entries,
    is refused too, and any n over MAX_SHADOW_QUBITS or requested count
    below 1 is a ValueError."""
    if n > MAX_SHADOW_QUBITS:
        raise ValueError(f"n={n} is over the {MAX_SHADOW_QUBITS} qubits that shadow sampling "
                         f"supports: a Born table has 6^n = {6**n} entries")
    check_samples(requested)
    m = nominal if requested is None else int(requested)
    sizes = batch_sizes(m, batches)
    if requested is None and not _takes_histograms(m, sizes, n) and m > SHADOW_SAMPLE_HARD_CAP:
        raise BudgetExceededError(
            f"nominal sample budget {m} needs per-sample indices (batches 6^n > m) above "
            f"the hard cap {SHADOW_SAMPLE_HARD_CAP}; set params.samples explicitly")
    if sizes[0] > exact_batch_limit(n):
        raise BudgetExceededError(
            f"a batch of {int(sizes[0])} samples on {n} qubits takes the shadow estimates' "
            "partial sums past 2^53, where floats stop being exact")
    entries = min(m, len(sizes) * 6**n)   # the form rule draws the smaller form
    if entries > MAX_ARRAY_ENTRIES:
        raise BudgetExceededError(f"a draw of {m} samples on {n} qubits holds {entries} "
                                  f"entries, over the cap {MAX_ARRAY_ENTRIES}")
    return m
