"""Shadow samples given as (m, n) rows of bases and outcomes, for the tests.

`collect_shadows` draws joint indices or batch histograms directly; this
encodes hand-written rows as the per-sample joint indices it would draw.
"""

import numpy as np


def encode_samples(bases, outcomes) -> np.ndarray:
    """The (m,) joint indices of (m, n) rows of basis letters (X, Y, Z = 0,
    1, 2) and outcomes (+-1), in the dtype `collect_shadows` draws them in."""
    bases, outcomes = np.asarray(bases), np.asarray(outcomes)
    if bases.ndim != 2 or bases.shape != outcomes.shape:
        raise ValueError("bases and outcomes must be (m, n) rows of one shape, "
                         f"got {bases.shape} and {outcomes.shape}")
    n = bases.shape[1]
    shift = np.arange(n - 1, -1, -1)
    words = bases.astype(np.int64) @ 3**shift << n | (outcomes < 0) @ (1 << shift)
    return words.astype(np.min_scalar_type(6**n))
