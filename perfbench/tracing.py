"""Outside-in tracing of isingcert layers for the benchmark's traced run.

The tracer replaces public functions by timing wrappers, at the defining
module or class and at every isingcert module that bound the same object
with `from .x import y`, and restores them afterwards; nothing in `src/` is
edited.  Every wrapped call adds to its layer's aggregate (calls, self
seconds, work); a layer's self time excludes the time of wrapped calls made
inside it.  Calls at trial level and above also keep a span (layer, request,
parent span, start, end).  Per-experiment leaf calls keep only the aggregate,
so the traced run's memory stays bounded.  The run must stay in one process
(parallelism 1) for the spans to be complete.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from pathlib import Path

import numpy as np


def _nth(i: int, name: str, default=None):
    """Work counter reading argument `i` (positional) or `name` (keyword)."""
    def get(args, kwargs, result):
        return args[i] if len(args) > i else kwargs.get(name, default)
    return get


def _matrices(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return math.prod(np.shape(a)[:-2])


def _members(args, kwargs, result):
    return args[0].size


def _bytes_in_out_dir(args, kwargs, result):
    out_dir = Path(args[0] if args else kwargs["out_dir"])
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


# (layer, defining module, attribute, keep spans, (work name, counter) or None)
LAYERS = (
    ("dynamics.charge_plan", "isingcert.dynamics", "charge_plan", False,
     ("experiments", _nth(2, "repeat", 1))),
    ("dynamics.realize", "isingcert.dynamics", "TrotterFragment.realize", False, None),
    ("stabilizers.sample", "isingcert.stabilizers", "sample_stabilizer_state", False, None),
    ("identity_estimator.estimate", "isingcert.identity_estimator",
     "estimate_identity_sq", True, None),
    ("certifier.subroutine", "isingcert.certifier", "certify_subroutine", True, None),
    ("certifier.certify", "isingcert.certifier", "certify", True, None),
    # every Hermitian eigendecomposition: oracle.hermitian_eig and the direct
    # numpy calls in hamiltonians both end in these two functions
    ("oracle.eig", "numpy.linalg", "eigh", False, ("matrices", _matrices)),
    ("oracle.eig", "numpy.linalg", "eigvalsh", False, ("matrices", _matrices)),
    ("hamiltonians.gibbs_coeff_matrix", "isingcert.hamiltonians",
     "HamiltonianNet.gibbs_coeff_matrix", True, ("members", _members)),
    ("hamiltonians.gibbs", "isingcert.hamiltonians", "gibbs", False, None),
    ("hamiltonians.to_matrix", "isingcert.hamiltonians", "LocalHamiltonian.to_matrix",
     False, None),
    ("paulis.pauli_trace_inner", "isingcert.paulis", "pauli_trace_inner", False, None),
    ("paulis.pauli_phases", "isingcert.paulis", "pauli_phases", False, None),
    ("shadows.collect", "isingcert.shadows", "collect_shadows", True,
     ("samples", _nth(1, "m"))),
    ("shadows.estimate_pauli", "isingcert.shadows", "estimate_pauli", False, None),
    ("gibbs.pinsker_gap", "isingcert.gibbs", "pinsker_gap", True, None),
    ("gibbs.learn", "isingcert.gibbs", "learn_gibbs", True, None),
    ("gibbs.certify", "isingcert.gibbs", "certify_gibbs", True, None),
    ("reports.write", "isingcert.reports", "write_report", True,
     ("bytes", _bytes_in_out_dir)),
)


class Tracer:
    def __init__(self):
        self.agg: dict[str, list] = {}   # layer -> [calls, self seconds, work]
        self.spans: list[list] = []      # [layer, request, parent, start, end]
        self.request = None              # identifier shared by one CLI call's spans
        self.missing: list[str] = []     # layers absent from this version of the code
        self._child: list[float] = []    # wrapped-child seconds, one per open call
        self._open: list[int] = []       # indices of open kept spans

    def wrap(self, layer: str, fn, keep: bool = True, work=None):
        child, open_spans, spans = self._child, self._open, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            if keep:
                span = [layer, self.request, open_spans[-1] if open_spans else None, 0.0, 0.0]
                open_spans.append(len(spans))
                spans.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                inner = child.pop()
                if child:
                    child[-1] += t1 - t0
                rec = self.agg.get(layer)
                if rec is None:
                    rec = self.agg[layer] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += t1 - t0 - inner
                if keep:
                    open_spans.pop()
                    span[3], span[4] = t0, t1
            if work is not None:
                rec[2] += work(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer in LAYERS for the duration of the block."""
        saved = []
        self.missing = []
        try:
            for layer, module, attr, keep, work in LAYERS:
                owner = importlib.import_module(module)
                *cls, name = attr.split(".")
                if cls:
                    owner = getattr(owner, cls[0], None)
                orig = vars(owner).get(name) if owner is not None else None
                if orig is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                wrapped = self.wrap(layer, orig, keep, work and work[1])
                sites = [(owner, name)] + [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == "isingcert" or mod_name.startswith("isingcert.")
                    for key, val in list(vars(mod).items())
                    if val is orig and mod is not owner
                ]
                for obj, key in sites:
                    saved.append((obj, key, orig))
                    setattr(obj, key, wrapped)
            yield self
        finally:
            for obj, key, orig in reversed(saved):
                setattr(obj, key, orig)


def layer_metrics() -> list[tuple[str, str, str, int]]:
    """(metric, unit, layer, aggregate slot) for every layer, in a fixed order."""
    out = {}
    for layer, _, _, _, work in LAYERS:
        out[f"{layer}.calls"] = ("count", layer, 0)
        out[f"{layer}.s"] = ("s", layer, 1)
        if work:
            out[f"{layer}.{work[0]}"] = ("B" if work[0] == "bytes" else "count", layer, 2)
    return [(name, *rest) for name, rest in out.items()]
