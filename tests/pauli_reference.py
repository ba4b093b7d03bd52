"""Literal references for the Pauli action kernels in paulis.py.

`trace_inners` is the per-matrix gather loop that `pauli_trace_inners` ran
before it gathered whole stacks: one (strings, 2^n) gather and one row sum
per matrix.  `pauli_sum` adds the terms one by one into each matrix, and
`pauli_matvec` applies one string to a state vector.  `local_clifford_rows`
conjugates 2-local coefficient rows by a local Clifford, for the invariance
tests.
"""

import numpy as np

from isingcert.paulis import PauliString, enumerate_local_paulis, pauli_phases


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


# H, S and the identity as signed letter maps, X, Y, Z = 1, 2, 3:
# g P g^dag = sign P' for the single-qubit Pauli P
CLIFFORD_LETTERS = {
    "I": ((1, 1), (2, 1), (3, 1)),
    "H": ((3, 1), (2, -1), (1, 1)),
    "S": ((2, 1), (1, -1), (3, 1)),
}


def local_clifford_rows(rows, n, rng):
    """The coefficient rows, over the weight <= 2 strings, of C H C^dag for
    each row's H, where C moves qubit q to perm[q] and then applies a random
    H, S or identity on each qubit: a signed permutation of the rows, worked
    out from the letter algebra alone."""
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    position = {p: i for i, p in enumerate(paulis)}
    perm, gates = rng.permutation(n), rng.choice(list(CLIFFORD_LETTERS), n)
    target, sign = [], []
    for p in paulis:
        letters, s = [0] * n, 1
        for q, d in enumerate(p.digits()):
            if d:
                letters[perm[q]], flip = CLIFFORD_LETTERS[gates[perm[q]]][d - 1]
                s *= flip
        target.append(position[PauliString.from_label("".join("IXYZ"[d] for d in letters))])
        sign.append(s)
    out = np.empty_like(rows)
    out[:, target] = rows * sign
    return out
