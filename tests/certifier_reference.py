"""One certification trial as LocalHamiltonians, for the tests.

`certify-dynamics` draws its instances as coefficient rows, certifies them in
blocks and renders their `levels` rows directly.  These helpers build one
trial's (H0, H) as LocalHamiltonians, run it as a one-trial `certify_block`
down its whole schedule, and return its verdict, its per-level records and
its ledger snapshot.  `uncompiled_schedule` and `one_level` build the
schedules that `CertConfig` does not: its (l, eps_l, delta_l) before any
compile, and one bounded-promise call as a one-level config.
"""

import copy
import math
from typing import NamedTuple

import numpy as np

from isingcert.certifier import CompiledLevel, certify_block, decide
from isingcert.dynamics import ExperimentLedger, trotter_compile
from isingcert.hamiltonians import LocalHamiltonian
from isingcert.identity_estimator import sample_count
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


def uncompiled_schedule(eps: float, delta: float, c_frob: float = 1.0) -> list[tuple]:
    """(l, eps_l, delta_l) from l = L down to 0, the floats `CertConfig`
    compiles: eps_l = (15/12)^l eps, delta_l = delta / (L + 1), and L the
    least level with eps_L >= 2 C_frob / 15.  Compiles nothing, so it also
    lists the schedule of a config whose compile overruns its budget."""
    ratio, arg = 15.0 / 12.0, 2.0 * c_frob / (15.0 * eps)
    big_l = max(0, math.ceil(math.log(arg) / math.log(ratio))) if arg > 1 else 0
    return [(l, ratio**l * eps, delta / (big_l + 1)) for l in range(big_l, -1, -1)]


def one_level(config, eps: float, delta: float):
    """A copy of `config` whose schedule is one compiled level, -1, at
    accuracy eps and confidence delta: one bounded-promise subroutine call."""
    prof, single = config.profile, copy.copy(config)
    fragment = trotter_compile(None, prof.time_for(eps), prof.eps_trott, config.c_op)
    single.levels = (CompiledLevel(-1, eps, delta, fragment,
                                   sample_count(prof.est_accuracy, delta)),)
    return single


def certifier_instance(rng, n: int, eps: float, far: bool,
                       c_frob: float = 1.0) -> tuple[LocalHamiltonian, LocalHamiltonian]:
    """The (H0, H) that `certifier_coeffs` draws from `rng`, as LocalHamiltonians."""
    paulis = enumerate_local_paulis(n, 2, include_identity=False)
    h0, h, _ = certifier_coeffs([rng], [0], n, eps, far, c_frob)
    return tuple(LocalHamiltonian(n, 2, dict(zip(paulis, row[0].tolist()))) for row in (h0, h))


def level_records(levels, estimates: list[float], threshold: float) -> list[LevelRecord]:
    """The records of one trial that ran the first len(estimates) levels."""
    return [LevelRecord(lvl.level, lvl.eps, lvl.delta, value, threshold, verdict, lvl.samples,
                        lvl.fragment.steps)
            for lvl, value, verdict in zip(levels, estimates, decide(estimates, threshold))]


def certify_trial(h0: LocalHamiltonian, h: LocalHamiltonian, config, rng) -> CertReport:
    """One trial down the whole schedule `config.levels`: any FAR stops it
    with FAR, and surviving every level means CLOSE."""
    ledger = ExperimentLedger()
    spectra = tuple(a[None] for a in (*h0.spectrum(), *h.spectrum()))
    [estimates] = certify_block(spectra, config, [np.random.default_rng(rng)], [ledger])
    records = level_records(config.levels, estimates, config.profile.far_threshold)
    return CertReport(records[-1].verdict, records, ledger.snapshot())
