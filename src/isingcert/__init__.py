"""Certification and learning of local Hamiltonians and their Gibbs states,
with exact dense oracles for every bounded quantity.

Core layers: Pauli algebra and local Hamiltonians, an exact dense oracle,
the simulated time-evolution access model with cost ledger, the memoryless
identity-coefficient estimator, the iterated dynamics certifier, classical
shadows, and the net-based Gibbs learner/certifier.  Literal references
that only the tests read (stabilizer states as signed generators, the
per-experiment access model, the per-trial sweeps) live in tests/.
"""

from .certifier import CLOSE, FAR, CertConfig, certify
from .dynamics import ExperimentLedger, NoiseModel, trotter_compile
from .gibbs import GibbsCertConfig, GibbsLearnConfig, certify_gibbs, learn_gibbs
from .hamiltonians import HamiltonianNet, LocalHamiltonian, gibbs_density, random_hamiltonian
from .identity_estimator import estimate_identity_sq
from .oracle import evolve, identity_coeff, trace_distance
from .paulis import PauliString, enumerate_local_paulis, pauli_to_matrix
from .shadows import collect_shadows, estimate_paulis, shadow_budget

__version__ = "0.1.0"

__all__ = [
    "CLOSE", "FAR", "CertConfig", "certify",
    "ExperimentLedger", "NoiseModel", "trotter_compile",
    "GibbsCertConfig", "GibbsLearnConfig", "certify_gibbs", "learn_gibbs",
    "HamiltonianNet", "LocalHamiltonian", "gibbs_density", "random_hamiltonian",
    "estimate_identity_sq",
    "evolve", "identity_coeff", "trace_distance",
    "PauliString", "enumerate_local_paulis", "pauli_to_matrix",
    "collect_shadows", "estimate_paulis", "shadow_budget",
    "__version__",
]
