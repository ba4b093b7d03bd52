"""Calibration corpus, version 1.

`trotter_corpus` is the fixed instance family on which TROTTER_KAPPA was
chosen.  It is regenerated from its seed, so acceptance criterion 03 checks
the shipped value on the exact same instances.
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import LocalHamiltonian, random_hamiltonian

TROTTER_CORPUS_SEED = 20250601


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
