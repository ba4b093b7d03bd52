"""Hamiltonian arithmetic, norms, net members, spectrum caching and the
random laws besides the uniform one, which only the tests use.

`certify-dynamics` draws its instances as coefficient rows and takes their
spectra from one stacked eig per block, and the net works on grid-value
rows; these helpers build the same objects one LocalHamiltonian at a time,
for the tests that compare them.
"""

import math

import numpy as np

from isingcert import oracle
from isingcert.hamiltonians import LocalHamiltonian, random_hamiltonian
from isingcert.paulis import enumerate_local_paulis, pauli_sum_matrix


def cache_spectra(hams) -> None:
    """Fill the `spectrum()` cache of every Hamiltonian of `hams` (one n) from
    one stacked scatter over the union of their strings and one stacked
    `hermitian_eig`.  A string a Hamiltonian lacks adds a zero, which leaves
    every entry as it was, so each spectrum is bit-identical to the one
    `spectrum()` computes alone."""
    paulis = sorted({p for h in hams for p in h.coeffs}, key=lambda p: p.code)
    coeffs = [[h.coeffs.get(p, 0.0) for p in paulis] for h in hams]
    w, v = oracle.hermitian_eig(pauli_sum_matrix(hams[0].n, paulis, coeffs))
    w.flags.writeable = v.flags.writeable = False
    for h, spectrum in zip(hams, zip(w, v)):
        h._spectrum = spectrum


def _unchecked(n: int, k: int, coeffs: dict) -> LocalHamiltonian:
    # Differences of admissible Hamiltonians can leave [-1,1]; build without
    # the coefficient-bound check but keep the structural fields.
    out = LocalHamiltonian.__new__(LocalHamiltonian)
    out.n = n
    out.k = k
    out.coeffs = {p: float(h) for p, h in coeffs.items() if h != 0.0 and not p.is_identity()}
    return out


def hamiltonian_sum(a: LocalHamiltonian, b: LocalHamiltonian) -> LocalHamiltonian:
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    keys = set(a.coeffs) | set(b.coeffs)
    return _unchecked(a.n, max(a.k, b.k),
                      {p: a.coeffs.get(p, 0.0) + b.coeffs.get(p, 0.0) for p in keys})


def hamiltonian_diff(a: LocalHamiltonian, b: LocalHamiltonian) -> LocalHamiltonian:
    return hamiltonian_sum(a, _unchecked(b.n, b.k, {p: -h for p, h in b.coeffs.items()}))


def frobenius_norm(h: LocalHamiltonian) -> float:
    """Normalized Frobenius norm sqrt(sum_P h_P^2)."""
    return math.sqrt(sum(c * c for c in h.coeffs.values()))


def net_member(net, index: int) -> LocalHamiltonian:
    """Member `index` of the HamiltonianNet `net`, as a LocalHamiltonian."""
    if not 0 <= index < net.size:
        raise IndexError(f"member index {index} out of range [0, {net.size})")
    coeffs = {p: float(v) for p, v in zip(net.support, net.values(index)) if v != 0.0}
    return LocalHamiltonian(net.n, max(p.weight for p in net.support), coeffs)


def random_fixed_norm(n: int, k: int, rng, frobenius: float) -> LocalHamiltonian:
    """`random_hamiltonian`'s uniform draw rescaled to normalized Frobenius
    norm `frobenius`: the law `tasks.certifier_coeffs` draws H0 and the unit
    direction from, with the same arithmetic.  A scale that takes some
    |h_P| past 1 is LocalHamiltonian's ValueError."""
    h = random_hamiltonian(n, k, rng)
    scale = frobenius / frobenius_norm(h)
    return LocalHamiltonian(n, k, {p: c * scale for p, c in h.coeffs.items()})


def random_sparse(n: int, k: int, rng, support_size: int) -> LocalHamiltonian:
    """k-local Hamiltonian on `support_size` distinct strings, drawn without
    replacement, each with a nonzero U[-1,1] coefficient."""
    rng = np.random.default_rng(rng)
    paulis = enumerate_local_paulis(n, k, include_identity=False)
    coeffs = {}
    for i in sorted(rng.choice(len(paulis), size=support_size, replace=False)):
        h = 0.0
        while abs(h) < 1e-9:
            h = float(rng.uniform(-1.0, 1.0))
        coeffs[paulis[i]] = h
    return LocalHamiltonian(n, k, coeffs)
