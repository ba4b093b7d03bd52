"""Shadow samples given as (m, n) rows of bases and outcomes, for the tests.

`collect_shadows` draws joint indices or batch histograms directly; this
encodes hand-written rows as the per-sample joint indices it would draw.
"""

import numpy as np

from isingcert.shadows import ShadowData


def encode_samples(bases, outcomes, batches: int = 1) -> ShadowData:
    """The ShadowData of (m, n) rows of basis letters (X, Y, Z = 0, 1, 2) and
    outcomes (+-1), as per-sample joint indices in `batches` batches."""
    bases, outcomes = np.asarray(bases), np.asarray(outcomes)
    if bases.ndim != 2 or bases.shape != outcomes.shape:
        raise ValueError("bases and outcomes must be (m, n) rows of one shape, "
                         f"got {bases.shape} and {outcomes.shape}")
    n = bases.shape[1]
    shift = np.arange(n - 1, -1, -1)
    words = bases.astype(np.int64) @ 3**shift << n | (outcomes < 0) @ (1 << shift)
    return ShadowData.from_index(words.astype(np.min_scalar_type(6**n)), n, batches)
