"""Classical shadows from random Pauli-basis measurements on single copies.

Each sample picks one of the 3^n basis words uniformly, measures every qubit
in its letter's eigenbasis, and stores the +-1 outcomes.  The single-sample
estimator for a string P multiplies 3*outcome over supp(P) when the basis
word matches there and contributes 0 otherwise, which keeps it unbiased with
a fixed denominator; aggregation is median of means.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constants import MOM_BATCH_CONSTANT, SHADOW_SAMPLE_CONSTANT
from .oracle import clip_distribution
from .paulis import PauliString, enumerate_local_paulis

_BASIS_LETTERS = "XYZ"
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


@dataclass(frozen=True)
class ShadowSample:
    bases: str      # length-n word over X, Y, Z
    outcomes: tuple[int, ...]  # +-1 per qubit


class ShadowData:
    """Array-backed sequence of shadow samples."""

    def __init__(self, bases: np.ndarray, outcomes: np.ndarray):
        if bases.shape != outcomes.shape:
            raise ValueError("bases and outcomes must have matching shapes")
        self.bases = np.asarray(bases, dtype=np.int8)       # (m, n) in {0,1,2}
        self.outcomes = np.asarray(outcomes, dtype=np.int8)  # (m, n) in {-1,+1}

    @property
    def n(self) -> int:
        return self.bases.shape[1]

    def __len__(self) -> int:
        return self.bases.shape[0]

    def __getitem__(self, i: int) -> ShadowSample:
        return ShadowSample(
            "".join(_BASIS_LETTERS[b] for b in self.bases[i]),
            tuple(int(o) for o in self.outcomes[i]),
        )

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def _joint_distribution(rho: np.ndarray, n: int) -> np.ndarray:
    """Exact probabilities over (basis word, outcome word), flattened.

    rho becomes a tensor with one (row bit, column bit) axis per qubit, and
    _BORN turns each into the qubit's six (basis, outcome) rows in turn.
    """
    pairs = np.arange(2 * n).reshape(2, n).T.ravel()
    t = rho.reshape((2,) * 2 * n).transpose(pairs).reshape((4,) * n)
    for _ in range(n):
        t = np.tensordot(t, _BORN, axes=([0], [1]))   # qubit axes rotate back into order
    words = np.concatenate([np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)])
    return clip_distribution(t.real.reshape((3, 2) * n).transpose(words).ravel() * 3.0**-n)


def _draw_indices(probs: np.ndarray, m: int, rng) -> np.ndarray:
    """rng.choice(len(probs), size=m, p=probs): the same checks, indices and
    generator state.  Every u in guide bucket j maps into [edges[j],
    edges[j + 1]], so the binary search runs only where those differ; u and
    the cdf are scaled by a power of two, which is exact.
    """
    if not (np.all(np.isfinite(probs)) and np.all(probs >= 0)
            and abs(probs.sum() - 1.0) <= np.sqrt(np.finfo(float).eps)):
        raise ValueError("probabilities must be finite, nonnegative and sum to 1")
    cdf = probs.cumsum()
    cdf = cdf / cdf[-1] * _GUIDE_BUCKETS
    u = rng.random(m) * _GUIDE_BUCKETS
    edges = cdf.searchsorted(np.arange(_GUIDE_BUCKETS + 1), side="right")
    edges = edges.astype(np.min_scalar_type(len(probs)))   # small gathers
    bucket = u.astype(np.int16)
    idx = edges[:-1][bucket]
    search = np.flatnonzero(idx != edges[1:][bucket])
    idx[search] = cdf.searchsorted(u[search], side="right")
    return idx


def collect_shadows(rho: np.ndarray, m: int, rng) -> ShadowData:
    """Draw m single-copy samples from the exact Born distribution of rho."""
    if m < 1:
        raise ValueError(f"need at least one sample, got {m}")
    rng = np.random.default_rng(rng)
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    flat = _draw_indices(_joint_distribution(rho, n), m, rng)
    # (basis, outcome) rows of every joint index b 2^n + o, gathered per sample;
    # np.take gathers whole rows several times faster than bases[flat]
    index, shift = np.arange(6**n)[:, None], np.arange(n - 1, -1, -1)
    bases = ((index >> n) // 3**shift % 3).astype(np.int8)
    outcomes = (1 - 2 * ((index >> shift) & 1)).astype(np.int8)
    return ShadowData(np.take(bases, flat, axis=0), np.take(outcomes, flat, axis=0))


def estimate_paulis(samples: ShadowData, paulis: Sequence[PauliString],
                    batches: int = 1) -> np.ndarray:
    """Median of means of the single-sample estimator, for every string at once.

    Streams over the `batches` batches (np.array_split boundaries).  In each
    batch, qubit q gets a table of four rows: 1 (for I), then 3 * outcome
    where the basis is X, Y or Z and 0 elsewhere.  Gathering each string's
    letter per qubit and multiplying over the qubits gives the (strings,
    batch) block of single-sample values.  They are integers, so every sum
    is exact and the result does not depend on the summation order.
    """
    if len(samples) == 0:
        raise ValueError("empty sample list")
    if any(p.n != samples.n for p in paulis):
        raise ValueError(f"every string must act on the samples' {samples.n} qubits")
    n, m = samples.n, len(samples)
    letters = np.array([p.digits() for p in paulis], dtype=np.intp).reshape(-1, n)
    dtype = np.min_scalar_type(-(3**n))   # holds every value, 0 or +-3^weight
    batches = max(1, min(batches, m))
    size, extra = divmod(m, batches)
    means = []
    start = 0
    for b in range(batches):
        stop = start + size + (b < extra)
        bases = samples.bases[start:stop].T
        tables = np.ones((n, 4, stop - start), dtype)
        for c in range(3):
            tables[:, c + 1] = np.where(bases == c, 3 * samples.outcomes[start:stop].T, 0)
        block = tables[0, letters[:, 0]]
        for q in range(1, n):
            block *= tables[q, letters[:, q]]
        means.append(block.sum(axis=1, dtype=np.int64) / (stop - start))
        start = stop
    if batches == 1:
        return means[0]
    # the median as np.median takes it (mean of the middle pair), without its
    # NaN check, which imports numpy.ma (1.3 MB); the means are finite
    ranked = np.sort(means, axis=0)
    mid = batches // 2
    return ranked[mid] if batches % 2 else (ranked[mid - 1] + ranked[mid]) / 2


def estimate_pauli(samples: ShadowData, p: PauliString, batches: int = 1) -> float:
    """Median of means of the single-sample estimator over `batches` batches."""
    return float(estimate_paulis(samples, [p], batches)[0])


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


@dataclass(frozen=True)
class ShadowEstimates:
    """Simultaneous estimates of Tr[P rho] for every weight <= k string."""

    n: int
    k: int
    values: dict[PauliString, float]
    samples_used: int
    batches: int

    def value(self, p: PauliString) -> float:
        return self.values[p]


def estimate_all(samples: ShadowData, k: int, delta: float,
                 batches: int | None = None) -> ShadowEstimates:
    n = samples.n
    if batches is None:
        batches = mom_batches(n, k, delta)
    paulis = enumerate_local_paulis(n, k)
    values = dict(zip(paulis, estimate_paulis(samples, paulis, batches).tolist()))
    return ShadowEstimates(n, k, values, len(samples), batches)


def write_shadow_file(samples: ShadowData, path) -> None:
    """One line per sample: basis word, space, outcome word over +/-."""
    with open(path, "w") as fh:
        for s in samples:
            word = "".join("+" if o > 0 else "-" for o in s.outcomes)
            fh.write(f"{s.bases} {word}\n")


def read_shadow_file(path) -> ShadowData:
    bases_rows = []
    outcome_rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            bword, oword = line.split()
            bases_rows.append([_BASIS_LETTERS.index(ch) for ch in bword])
            outcome_rows.append([1 if ch == "+" else -1 for ch in oword])
    return ShadowData(np.array(bases_rows, dtype=np.int8),
                      np.array(outcome_rows, dtype=np.int8))
