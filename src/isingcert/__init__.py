"""Certification and learning of local Hamiltonians and their Gibbs states,
with exact dense oracles for every bounded quantity.

Core layers: Pauli algebra and local Hamiltonians, an exact dense oracle,
the simulated time-evolution access model with cost ledger, the memoryless
identity-coefficient estimator, the iterated dynamics certifier, classical
shadows, and the net-based Gibbs learner/certifier.  Literal references
that only the tests read (stabilizer states as signed generators, the
per-experiment access model, the per-trial sweeps) live in tests/.

Importing the package loads none of its modules: import each one by name
(`from isingcert import oracle`, `from isingcert.certifier import certify_block`),
so a process loads only the layers it runs.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
