"""Workloads of the isingcert benchmark and the correctness gate of each call.

A workload is a fixed list of CLI calls.  The benchmark seed becomes the
config seed of every call, so one seed fixes every input.  Only valid
configurations are benchmarked: the certify-dynamics far arm with
12 * eps >= c_frob exits 1 with a ValueError traceback instead of the
documented config error (exit 2), and no workload goes near that edge.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

SLACK_FLOOR = -1e-9
# every CLI task; each has a per-task time metric
TASKS = ("certify-dynamics", "learn-gibbs", "certify-gibbs", "shadow-estimate",
         "verify-bonami", "verify-bounds")


def task_metric(task: str) -> str:
    """Metric that sums the wall time of one task's calls in a pass."""
    return task.replace("-", "_") + "_s"


@dataclass(frozen=True)
class Call:
    """One CLI invocation: a task, its trial count, params and parallelism."""

    task: str
    trials: int
    params: tuple          # sorted (key, value) pairs, so the label is stable
    parallelism: int = 1

    @property
    def label(self) -> str:
        """Unique, path-safe name; also the key of the determinism reference."""
        arm = dict(self.params).get("arm")
        arm = f"-{arm}" if arm else ""
        params = hashlib.sha256(repr(self.params).encode()).hexdigest()[:8]
        return f"{self.task}{arm}-t{self.trials}-p{self.parallelism}-{params}"

    def config(self, seed: int) -> dict:
        return {
            "schema_version": 1, "task": self.task, "seed": seed,
            "trials": self.trials, "parallelism": self.parallelism,
            "params": dict(self.params),
        }


def call(task: str, trials: int, parallelism: int = 1, **params) -> Call:
    return Call(task, trials, tuple(sorted(params.items())), parallelism)


@dataclass(frozen=True)
class Workload:
    calls: tuple            # one timed pass
    warmup: tuple           # run once before timing; checked for exit status only

    @property
    def serial_calls(self) -> tuple:
        """The pass with every call at parallelism 1 (the traced pass)."""
        return tuple(replace(c, parallelism=1) for c in self.calls)

    @property
    def fanout_calls(self) -> tuple:
        """Calls that fan out to worker processes, at parallelism 1."""
        return tuple(replace(c, parallelism=1) for c in self.calls if c.parallelism > 1)


_DYN = dict(eps=0.05, delta=0.1, profile="calibrated")
_LEARN = dict(n=2, k=2, support=("ZI", "IZ", "ZZ"), eta=0.25, samples=20000)

# Two workloads, so that each run can be long.  On a shared VM the CPU speed
# drifts by 10-40% over tens of seconds; a run must span that drift for its
# median to repeat from run to run.
WORKLOADS = {
    # certify-dynamics.  n=2 at the criterion-06 settings: per-experiment
    # ledger charging dominates and the n <= 2 enumeration replaces stabilizer
    # sampling.  n=3, one close and one far trial: per-draw stabilizer sampling
    # dominates.  The far arm needs eps < 1/12 and then always runs 3 of its 4
    # levels; the close arm at eps = 0.2 runs one level (at eps = 0.08 it would
    # run all 4 and triple the pass time).
    "dynamics": Workload(
        calls=(call("certify-dynamics", 50, n=2, arm="close", **_DYN),
               call("certify-dynamics", 50, n=2, arm="far", **_DYN),
               call("certify-dynamics", 1, n=3, arm="close", eps=0.2, delta=0.1),
               call("certify-dynamics", 1, n=3, arm="far", eps=0.08, delta=0.1)),
        warmup=(call("certify-dynamics", 1, n=2, arm="close", **_DYN),),
    ),
    # The net Gibbs table (one 729-member net shared by every learn trial) and
    # the shadow layers (nothing shared across shadow trials); then many small
    # exact-oracle trials, the only process fan-out.  Trial counts are half
    # those of the acceptance criteria, so a run holds many passes.
    "gibbs-sweeps": Workload(
        calls=(call("learn-gibbs", 10, **_LEARN),
               call("certify-gibbs", 25, n=2, arm="equal", samples=20000),
               call("certify-gibbs", 25, n=2, arm="far", samples=20000),
               call("shadow-estimate", 20, n=3),
               call("verify-bonami", 500, parallelism=2),
               call("verify-bounds", 250, parallelism=2)),
        warmup=(call("learn-gibbs", 1, **_LEARN),
                call("certify-gibbs", 1, n=2, arm="far", samples=20000),
                call("shadow-estimate", 1, n=3),
                call("verify-bonami", 20, parallelism=2),
                call("verify-bounds", 20, parallelism=2, footnote_pairs=5)),
    ),
}


def binomial_floor(trials: int, rate: float) -> int:
    """Lowest passing count: rate * trials minus three binomial sigmas."""
    return math.ceil(trials * rate - 3.0 * math.sqrt(trials * rate * (1.0 - rate)))


def gate(task: str, payload: dict) -> str | None:
    """Acceptance-level bound of one report; returns why it fails, or None."""
    if task in ("certify-dynamics", "certify-gibbs"):
        if payload["error_rate"] > 0.10:
            return f"error_rate {payload['error_rate']} > 0.10"
    elif task == "learn-gibbs":
        if payload["success_rate"] < 0.90:
            return f"success_rate {payload['success_rate']} < 0.90"
    elif task == "shadow-estimate":
        floor = binomial_floor(len(payload["trials"]), 0.95)
        if payload["success_count"] < floor:
            return f"coverage {payload['success_count']} below the floor {floor}"
    elif task in ("verify-bonami", "verify-bounds"):
        if payload["violations"] or payload.get("footnote_violations", 0):
            return "bound violations reported"
        if payload["min_slack"] < SLACK_FLOOR:
            return f"min_slack {payload['min_slack']} < {SLACK_FLOOR}"
    else:
        return f"no gate for task {task!r}"
    return None
