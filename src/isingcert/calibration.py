"""Calibration corpus, version 1.

The corpora below are the fixed instance families on which the shipped
constants (trotter kappa, shadow sample constant, calibrated certification
profile) were chosen.  Everything is regenerated from seeds, so the tests
that re-run a calibration check the shipped constant against the exact same
instances it was fitted on.
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import _COEFF_TOL, LocalHamiltonian, frobenius_norms, random_hamiltonian
from .paulis import enumerate_local_paulis, local_pauli_count

TROTTER_CORPUS_SEED = 20250601
CERTIFIER_CORPUS_SEED = 20250602
SHADOW_CORPUS_SEED = 20250603


def trotter_corpus(pairs: int = 100):
    """Random (H, H0) pairs, n <= 3, 2-local, operator norms <= 1, t in (0, 1]."""
    ss = np.random.SeedSequence(TROTTER_CORPUS_SEED)
    out = []
    for child in ss.spawn(pairs):
        rng = np.random.default_rng(child)
        n = int(rng.integers(2, 4))
        h = _op_norm_capped(random_hamiltonian(n, 2, rng), rng)
        h0 = _op_norm_capped(random_hamiltonian(n, 2, rng), rng)
        t = float(rng.uniform(0.05, 1.0))
        out.append((h, h0, t))
    return out


def _op_norm_capped(h: LocalHamiltonian, rng) -> LocalHamiltonian:
    norm = h.operator_norm()
    target = float(rng.uniform(0.2, 1.0))
    return h.scaled(target / norm)


class InstanceError(ValueError):
    """Row `row` of a block of drawn instances breaks its box or its gap."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def certifier_coeffs(rngs, n: int, eps: float, far: bool, c_frob: float = 1.0):
    """(H0, H, ||H - H0||_F) of one instance per generator of `rngs`: coefficient
    rows (B, T) over enumerate_local_paulis(n, 2, include_identity=False) and
    the B gap norms.  ||H - H0||_F is eps (close arm) or 12 eps (far arm),
    and both norms stay within c_frob.

    Each generator draws H0 and then a unit direction as `random_hamiltonian`'s
    "fixed_norm" law does, with its arithmetic, and H = H0 + gap * direction.
    The first row with a degenerate draw, with H0, the direction,
    gap * direction or H outside the box |h_P| <= 1, or with ||H - H0||_F off its
    arm's gap by more than 1e-9, raises InstanceError.
    """
    gap = 12.0 * eps if far else eps
    if gap >= c_frob:
        raise ValueError(f"12 eps = {gap} leaves no room inside c_frob = {c_frob}")
    target = np.array([min(0.35 * c_frob, 0.9 * (c_frob - gap)), 1.0])
    terms = local_pauli_count(n, 2) - 1
    draws = np.array([rng.uniform(-1.0, 1.0, (2, terms))
                      for rng in map(np.random.default_rng, rngs)])   # (B, 2, T)
    norms = frobenius_norms(draws)   # random_hamiltonian's sequential sum
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = draws * (target / norms)[..., None]
    h0, step = rows[:, 0], rows[:, 1] * gap
    h = h0 + step
    delta = np.linalg.norm(h - h0, axis=-1)
    peaks = np.abs(np.stack([h0, rows[:, 1], step, h], axis=1)).max(axis=-1)   # (B, 4)
    bad = np.column_stack([(norms == 0).any(axis=-1), peaks > 1.0 + _COEFF_TOL,
                           delta < gap - 1e-9 if far else delta > gap + 1e-9])
    if bad.any():   # the first failing row, at its first failing check
        row = int(bad.any(axis=1).argmax())
        check = int(bad[row].argmax())
        if check == 0:
            message = "degenerate draw, cannot rescale"
        elif check < 5:
            part = ("H0", "the unit direction", "gap * direction", "H")[check - 1]
            message = (f"the instance drawn at c_frob = {c_frob} leaves the box |h_P| <= 1: "
                       f"{part} has |h_P| up to {peaks[row, check - 1]}")
        else:
            message = (f"{'far' if far else 'close'}-arm instance has ||dH||_F = {delta[row]}, "
                       f"{'below 12 eps' if far else 'above eps'} = {gap}")
        raise InstanceError(row, message)
    return h0, h, delta


def certifier_instance(rng, n: int, eps: float, far: bool,
                       c_frob: float = 1.0) -> tuple[LocalHamiltonian, LocalHamiltonian]:
    """The (H0, H) that `certifier_coeffs` draws from `rng`, as LocalHamiltonians."""
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    h0, h, _ = certifier_coeffs([rng], n, eps, far, c_frob)
    return tuple(LocalHamiltonian(n, 2, dict(zip(paulis, row[0].tolist()))) for row in (h0, h))


def certifier_corpus(trials: int = 40, n: int = 2, eps: float = 0.05):
    """Instances used to fit the calibrated threshold/accuracy pair."""
    ss = np.random.SeedSequence(CERTIFIER_CORPUS_SEED)
    out = []
    for i, child in enumerate(ss.spawn(2 * trials)):
        far = i % 2 == 1
        h0, h = certifier_instance(child, n, eps, far)
        out.append((h0, h, far))
    return out


def shadow_corpus(states: int = 10, n: int = 3, beta: float = 1.0):
    """Random 2-local Gibbs states for the shadow-coverage calibration."""
    from .hamiltonians import gibbs_density

    ss = np.random.SeedSequence(SHADOW_CORPUS_SEED)
    out = []
    for child in ss.spawn(states):
        rng = np.random.default_rng(child)
        h = random_hamiltonian(n, 2, rng)
        out.append((h, gibbs_density(h, beta)))
    return out
