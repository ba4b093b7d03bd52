"""Brute-force ground truth: exact time evolution, trace distances, Schatten
power moments, and identity Pauli coefficients.

Every matrix function here goes through one Hermitian eigendecomposition
kernel, which each LocalHamiltonian runs once, for its cached `spectrum()`;
readers of eigenvalues alone take its values-only variant, behind the same
Hermitian guard.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .hamiltonians import LocalHamiltonian

# bytes of one stacked array in a batched kernel: (m, 2^n, 2^n) complex
# matrices, or the (m, terms, 2^n) bins and real weights of a stacked Pauli
# scatter, together
STACK_CHUNK_BYTES = 2**20
CLIP_TOL = 1e-12  # negative probability mass that clip_distribution takes for rounding
HERMITIAN_TOL = 1e-8   # largest |a - a^dag| entry the eig kernel takes, per unit of max |a|


def stack_size(n: int, r: int, terms: int, extra: int = 0) -> int:
    """Items per stack when each item holds r Hamiltonians of `terms` strings
    on n qubits, and `extra` bytes of other arrays: the scatter's bins and
    real weights (r, terms, 2^n) together, the matrices (r, 2^n, 2^n) and the
    other arrays of a stack each stay within STACK_CHUNK_BYTES."""
    return max(1, STACK_CHUNK_BYTES // max(16 * r * 2**n * max(2**n, terms), extra))


def _check_hermitian(a: np.ndarray) -> None:
    """Reject a non-square input, or one with a non-finite or visibly
    non-Hermitian matrix, each matrix judged at its own scale."""
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got {a.shape}")
    scale = np.maximum(abs(a).max(axis=(-2, -1), keepdims=True), 1.0)
    if not np.isfinite(scale).all():   # a NaN or infinite entry
        raise ValueError("matrix has a non-finite entry")
    if (abs(a - a.conj().swapaxes(-1, -2)) > HERMITIAN_TOL * scale).any():
        raise ValueError("matrix is not Hermitian")


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared eigendecomposition kernel for one matrix or a stack (..., d, d)."""
    _check_hermitian(a)
    return np.linalg.eigh(a)


def hermitian_eigvals(a: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of `hermitian_eig`, without the eigenvectors,
    for callers that read only the spectrum."""
    _check_hermitian(a)
    return np.linalg.eigvalsh(a)


def clip_distribution(probs: np.ndarray) -> np.ndarray:
    """Born probabilities with rounding-level negatives clipped, renormalized;
    a stack (..., K) is clipped row by row.

    A total off 1 by more than sqrt(eps) (a state without unit trace), or
    more than CLIP_TOL of negative mass (a non-PSD state), in any row is a
    ValueError.
    """
    total = probs.sum(axis=-1, keepdims=True)
    off = ~(abs(total - 1.0) <= np.sqrt(np.finfo(float).eps))
    if off.any():
        raise ValueError(f"state does not have unit trace: probabilities sum to "
                         f"{float(total[off][0]):.6g}")
    negative = -float(np.min(np.sum(probs, axis=-1, where=probs < 0)))
    if negative > CLIP_TOL:
        raise ValueError(f"state is not PSD: negative probability mass {negative:.3g}")
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def evolve(h: LocalHamiltonian, t: float) -> np.ndarray:
    """exp(-i t H) from the cached spectrum of H; unitary to 1e-10."""
    w, v = h.spectrum()
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def evolve_matrix(hmat: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) for a dense Hermitian H, by the same formula as `evolve`."""
    w, v = hermitian_eig(hmat)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def trace_distance(rho: np.ndarray, sigma: np.ndarray):
    """Trace norm of rho - sigma (sum of singular values), one per pair of a stack."""
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    return np.sum(np.abs(hermitian_eigvals(rho - sigma)), axis=-1).tolist()


def operator_norm_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest singular value of a - b (works for non-Hermitian a, b)."""
    return float(np.linalg.norm(a - b, ord=2))


def spectral_moments(w: np.ndarray, ls) -> list[list[float]]:
    """(Tr[|H|^l] / 2^n)^(1/l) for every order l in `ls`, one row per spectrum
    of the eigenvalue stack w (m, 2^n).  Each root is a Python float power,
    the C library's pow as for a numpy scalar: a power over an array can
    miss it by an ulp."""
    ls = list(ls)
    if min(ls) < 2:
        raise ValueError(f"moment orders must be >= 2, got {ls}")
    a = np.abs(w)
    means = [np.mean(a ** l, axis=-1).tolist() for l in ls]
    return [[mean ** (1.0 / l) for mean, l in zip(row, ls)] for row in zip(*means)]


def identity_coeff(u: np.ndarray) -> complex:
    """Pauli coefficient of the identity string: Tr[U] / 2^n."""
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got {u.shape}")
    return complex(np.trace(u)) / u.shape[0]


def moment_tail_partial_sums(x: float, k: int, l_max: int) -> np.ndarray:
    """Partial sums sum_{l=3..L} x^l l^(lk/2) / l! for L = 3..l_max.

    This is the Taylor-tail majorant that the moment bound
    (Tr|H|^l/2^n)^(1/l) <= l^(k/2) ||H||_F produces for the identity
    coefficient of exp(-i t H) at x = t ||H||_F.  For k = 2 the terms decay
    geometrically once x e < 1; for k >= 3 the terms eventually grow without
    bound, which is the obstruction to certifying k >= 3 this way.  Terms are
    evaluated in log space to dodge factorial overflow.
    """
    if x <= 0:
        raise ValueError(f"series argument must be positive, got {x}")
    if l_max < 3:
        raise ValueError(f"l_max must be >= 3, got {l_max}")
    ls = np.arange(3, l_max + 1, dtype=float)
    log_terms = ls * math.log(x) + 0.5 * k * ls * np.log(ls) - np.array(
        [math.lgamma(l + 1.0) for l in ls]
    )
    return np.cumsum(np.exp(log_terms))
