"""The pure stabilizer states of one and two qubits, which give the identity
estimator its exact indicator expectation.

They are the orbit of |0...0> under the Clifford group, which H and S on
each qubit and CZ generate.  The signed-generator description and the
uniform sampler at any n are the tests' reference (tests/access_reference.py).
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np


def _phase_free(v: np.ndarray) -> tuple:
    """Key of v up to a global phase: its first nonzero entry made positive."""
    lead = v[np.flatnonzero(np.abs(v) > 1e-6)[0]]
    return tuple(np.round(v * (abs(lead) / lead), 9).tolist())


@lru_cache(maxsize=2)
def stabilizer_state_matrix(n: int) -> np.ndarray:
    """Every stabilizer state of n in {1, 2} qubits, one row each (6 or 60),
    read-only: a breadth-first search from |0...0> that keeps each new state
    once, up to phase."""
    if n not in (1, 2):
        raise ValueError(f"enumeration supported for n <= 2, got n={n}")
    one_qubit = (np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.diag([1, 1j]))
    gates = [reduce(np.kron, [g if i == q else np.eye(2) for i in range(n)])
             for q in range(n) for g in one_qubit]
    if n == 2:
        gates.append(np.diag([1, 1, 1, -1]))   # CZ
    orbit = [np.eye(2**n, dtype=complex)[0]]
    seen = {_phase_free(orbit[0])}
    for v in orbit:   # the list grows while it is read: a breadth-first queue
        for g in gates:
            w = g @ v
            if (key := _phase_free(w)) not in seen:
                seen.add(key)
                orbit.append(w)
    mat = np.array(orbit)
    mat.flags.writeable = False
    return mat
