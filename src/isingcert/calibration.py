"""Calibration corpus, version 1.

The corpora below are the fixed instance families on which the shipped
constants (trotter kappa, shadow sample constant, calibrated certification
profile) were chosen.  Everything is regenerated from seeds, so the tests
that re-run a calibration check the shipped constant against the exact same
instances it was fitted on.
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import LocalHamiltonian, random_hamiltonian
from .paulis import enumerate_local_paulis
from .tasks import certifier_coeffs

TROTTER_CORPUS_SEED = 20250601
CERTIFIER_CORPUS_SEED = 20250602
SHADOW_CORPUS_SEED = 20250603


def trotter_corpus(pairs: int):
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


def certifier_corpus(trials: int = 40, n: int = 2, eps: float = 0.05):
    """Instances used to fit the calibrated threshold/accuracy pair: (H0, H,
    far) triples, the arms alternating, as `certifier_coeffs` draws them."""
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    out = []
    for i, child in enumerate(np.random.SeedSequence(CERTIFIER_CORPUS_SEED).spawn(2 * trials)):
        far = i % 2 == 1
        rows = certifier_coeffs([child], n, eps, far)[:2]
        out.append((*(LocalHamiltonian(n, 2, dict(zip(paulis, r[0].tolist()))) for r in rows),
                    far))
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
