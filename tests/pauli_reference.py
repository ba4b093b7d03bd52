"""Literal references for the Pauli action kernels in paulis.py.

`trace_inners` is the per-matrix gather loop that `pauli_trace_inners` ran
before it gathered whole stacks: one (strings, 2^n) gather and one row sum
per matrix.  `pauli_sum` adds the terms one by one into each matrix, and
`pauli_matvec` applies one string to a state vector.
"""

import numpy as np

from isingcert.paulis import pauli_phases


def trace_inners(paulis, a):
    flips, phases = zip(*(pauli_phases(p) for p in paulis))
    cols = np.arange(a.shape[-1])
    rows, phases = cols ^ np.array(flips)[:, None], np.conj(phases)
    sums = [np.sum(phases * x[rows, cols], axis=1) for x in a.reshape(-1, *a.shape[-2:])]
    return sums[0] if a.ndim == 2 else np.array(sums)


def pauli_sum(n, paulis, coeffs):
    coeffs = np.asarray(coeffs)
    dim = 2**n
    out = np.zeros((*coeffs.shape[:-1], dim, dim), dtype=complex)
    cols = np.arange(dim)
    for matrix, row in zip(out.reshape(-1, dim, dim), coeffs.reshape(-1, len(paulis))):
        for p, c in zip(paulis, row):
            flip, phases = pauli_phases(p)
            matrix[cols ^ flip, cols] += c * phases
    return out


def pauli_matvec(p, vec):
    flip, phases = pauli_phases(p)
    out = np.empty_like(vec, dtype=complex)
    out[np.arange(vec.shape[0]) ^ flip] = phases * vec
    return out
