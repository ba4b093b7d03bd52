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
from .paulis import PauliString, enumerate_local_paulis

_BASIS_LETTERS = "XYZ"
_SQ2 = 1.0 / math.sqrt(2.0)
_EIGVECS = {
    0: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),          # X
    1: np.array([[_SQ2, _SQ2], [1j * _SQ2, -1j * _SQ2]], dtype=complex),  # Y
    2: np.eye(2, dtype=complex),                                          # Z
}


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
    """Exact probabilities over (basis word, outcome word), flattened."""
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


def collect_shadows(rho: np.ndarray, m: int, rng) -> ShadowData:
    """Draw m single-copy samples from the exact Born distribution of rho."""
    if m < 1:
        raise ValueError(f"need at least one sample, got {m}")
    rng = np.random.default_rng(rng)
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    probs = _joint_distribution(rho, n)
    # the smallest type holding every joint index keeps the temporaries small
    flat = rng.choice(len(probs), size=m, p=probs).astype(np.min_scalar_type(-len(probs)))
    b = flat // dim
    o = flat % dim
    bases = np.empty((m, n), dtype=np.int8)
    outcomes = np.empty((m, n), dtype=np.int8)
    for i in range(n):
        bases[:, i] = (b // 3 ** (n - 1 - i)) % 3
        outcomes[:, i] = 1 - 2 * ((o >> (n - 1 - i)) & 1)
    return ShadowData(bases, outcomes)


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
