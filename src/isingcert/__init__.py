"""Certification and learning of local Hamiltonians and their Gibbs states,
with exact dense oracles for every bounded quantity.

Core layers: Pauli algebra and local Hamiltonians, an exact dense oracle,
the simulated time-evolution access model with cost ledger, the memoryless
identity-coefficient estimator, the iterated dynamics certifier, classical
shadows, and the net-based Gibbs learner/certifier.
"""

from .certifier import CLOSE, FAR, CertConfig, certify, certify_subroutine
from .dynamics import ExperimentLedger, NoiseModel, trotter_compile
from .gibbs import GibbsCertConfig, GibbsLearnConfig, certify_gibbs, learn_gibbs, pinsker_gap
from .hamiltonians import HamiltonianNet, LocalHamiltonian, gibbs_density, random_hamiltonian
from .identity_estimator import estimate_identity_sq
from .oracle import evolve, identity_coeff, schatten_moments, trace_distance
from .paulis import PauliString, enumerate_local_paulis, pauli_to_matrix
from .shadows import collect_shadows, estimate_paulis, shadow_budget
from .stabilizers import StabilizerState

__version__ = "0.1.0"

__all__ = [
    "CLOSE", "FAR", "CertConfig", "certify", "certify_subroutine",
    "ExperimentLedger", "NoiseModel", "trotter_compile",
    "GibbsCertConfig", "GibbsLearnConfig", "certify_gibbs", "learn_gibbs", "pinsker_gap",
    "HamiltonianNet", "LocalHamiltonian", "gibbs_density", "random_hamiltonian",
    "estimate_identity_sq",
    "evolve", "identity_coeff", "schatten_moments", "trace_distance",
    "PauliString", "enumerate_local_paulis", "pauli_to_matrix",
    "collect_shadows", "estimate_paulis", "shadow_budget",
    "StabilizerState",
    "__version__",
]
