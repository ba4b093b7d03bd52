"""The literal per-trial generators that `tasks.trial_rngs` builds in bulk."""

import numpy as np


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Trial t's generator of key k is trial_rng(seed, t, *k)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def trial_rngs(seed: int, trials, *key: int) -> list:
    """`tasks.trial_rngs` as a per-trial SeedSequence loop."""
    return [trial_rng(seed, t, *key) for t in trials]
