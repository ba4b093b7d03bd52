"""Literal references for the Pauli action kernels in paulis.py.

`pauli_phases` is one string's action, from its letters one by one, and
`plan` is `pauli_plan` built from it string by string.  `trace_inners` is
the per-matrix gather loop that `pauli_trace_inners` ran before it gathered
whole stacks: one (strings, 2^n) gather and one row sum per matrix.
`pauli_sum` adds the terms one by one into each matrix, and `pauli_matvec`
applies one string to a state vector.  `local_clifford_rows` conjugates
2-local coefficient rows by a local Clifford, for the invariance tests.
"""

import functools

import numpy as np

from isingcert.paulis import PauliPlan, PauliString, enumerate_local_paulis


@functools.lru_cache(maxsize=1024)
def pauli_phases(p: PauliString) -> tuple[int, np.ndarray]:
    """Action data for p: p|x> = phases[x] * |x ^ flip_mask>.

    flip_mask has a bit per qubit where the letter is X or Y (qubit 0 is the
    most significant bit, matching the tensor-product index convention).
    phases[x] = i^{#Y} * (-1)^{popcount(x & zy_mask)}.  Results are cached
    per string, so the phase array is read-only.
    """
    digits = p.digits()
    n = p.n
    flip = 0
    zy = 0
    num_y = 0
    for i, d in enumerate(digits):
        bit = 1 << (n - 1 - i)
        if d in (1, 2):
            flip |= bit
        if d in (2, 3):
            zy |= bit
        if d == 2:
            num_y += 1
    x = np.arange(2**n, dtype=np.uint64)
    parity = np.bitwise_count(x & np.uint64(zy)) & 1
    phases = ((1j**num_y) * np.where(parity, -1.0, 1.0)).astype(complex)
    phases.flags.writeable = False
    return flip, phases


def plan(n, codes):
    """The plan that `pauli_plan(n, codes)` returns, string by string."""
    dim = 2**n
    flips = np.zeros(len(codes), dtype=np.intp)
    phases = np.zeros((len(codes), dim), dtype=complex)
    for j, code in enumerate(codes):
        flips[j], phases[j] = pauli_phases(PauliString(n, code))
    cols = np.arange(dim)
    index = (cols ^ flips[:, None]) * dim + cols
    odd = phases[:, :1].real == 0   # phases[:, 0] = i^{#Y}
    return PauliPlan(index, phases.conj(), 2 * index + odd,
                     np.where(odd, phases.imag, phases.real))


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
