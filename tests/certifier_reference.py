"""One certification trial as LocalHamiltonians, for the tests.

`certify-dynamics` draws its instances as coefficient rows, certifies them in
blocks and renders their `levels` rows directly.  These helpers build one
trial's (H0, H) as LocalHamiltonians, run it as a one-trial `certify_block`
down its whole schedule, and return its verdict, its per-level records and
its ledger snapshot.
"""

from typing import NamedTuple

import numpy as np

from isingcert.certifier import certify_block, compile_levels, decide
from isingcert.dynamics import ExperimentLedger
from isingcert.hamiltonians import LocalHamiltonian
from isingcert.paulis import enumerate_local_paulis
from isingcert.tasks import certifier_coeffs


class LevelRecord(NamedTuple):
    """One `levels` CSV row of a trial, without the trial column."""

    level: int
    eps: float
    delta: float
    estimate: float
    threshold: float
    verdict: str
    samples: int
    trotter_steps: int


class CertReport(NamedTuple):
    verdict: str
    levels: list[LevelRecord]
    ledger: dict


def certifier_instance(rng, n: int, eps: float, far: bool,
                       c_frob: float = 1.0) -> tuple[LocalHamiltonian, LocalHamiltonian]:
    """The (H0, H) that `certifier_coeffs` draws from `rng`, as LocalHamiltonians."""
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    h0, h, _ = certifier_coeffs([rng], n, eps, far, c_frob)
    return tuple(LocalHamiltonian(n, 2, dict(zip(paulis, row[0].tolist()))) for row in (h0, h))


def level_records(levels, estimates: list[float], threshold: float) -> list[LevelRecord]:
    """The records of one trial that ran the first len(estimates) levels."""
    return [LevelRecord(lvl.level, lvl.eps, lvl.delta, value, threshold, verdict, lvl.samples,
                        lvl.fragment.steps)
            for lvl, value, verdict in zip(levels, estimates, decide(estimates, threshold))]


def certify_trial(h0: LocalHamiltonian, h: LocalHamiltonian, config, rng) -> CertReport:
    """One trial down the whole schedule: any FAR stops it with FAR, and
    surviving every level means CLOSE.  The schedule is compiled before the
    first draw, so a budget overrun at any level raises BudgetExceededError
    with `rng` untouched."""
    levels = compile_levels(config.levels, config)
    ledger = ExperimentLedger()
    spectra = tuple(a[None] for a in (*h0.spectrum(), *h.spectrum()))
    [estimates] = certify_block(spectra, levels, config, [np.random.default_rng(rng)], [ledger])
    records = level_records(levels, estimates, config.profile.far_threshold)
    return CertReport(records[-1].verdict, records, ledger.snapshot())
