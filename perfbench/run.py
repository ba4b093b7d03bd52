"""Benchmark of the isingcert CLI: two seeded workloads through `cli.main`.

    python3 perfbench/run.py --workload dynamics --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  `--trace 0` measures the end-to-end metrics with tracing off.
`--trace 1` alternates untraced passes with passes that have every layer
wrapped (at parallelism 1), and reports the per-layer metrics.  Every call's
report must meet its task's acceptance bound and be byte-identical to the
first call with the same seed; a call that does not counts as failed.  The
last line of stdout is one JSON object {correct, attempted, failed, metrics};
the full record (environment, per-pass times, spans) is written to
perfbench/results/.  perfbench/README.md maps layers to end-to-end metrics.
"""

from __future__ import annotations

import os

# Before numpy loads anywhere: one BLAS thread, so parallelism 2 means two
# threads in total on a two-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics
from workloads import TASKS, WORKLOADS, gate, task_metric

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# fresh starts taken before each timed pass, and the fewest in one run; spread
# over the run, their median sees the same drift in machine speed as the passes
SETUP_STARTS_PER_PASS = 2
SETUP_STARTS = 9
# a fresh CLI process on the smallest n = 2 certification: imports, argument
# parsing, config validation and the lazy stabilizer enumeration
SETUP_CONFIG = {
    "schema_version": 1, "task": "certify-dynamics", "trials": 1, "parallelism": 1,
    "params": {"n": 2, "arm": "close", "eps": 0.2, "delta": 0.1},
}
SETUP_CODE = "import sys; from isingcert.cli import main; sys.exit(main())"
# Machine-speed probe.  On a shared VM the CPU speed drifts by up to 1.5x in
# phases that last minutes, longer than any run, so identical work timed in
# two runs differs by more than any bound.  A fixed kernel in the program's
# mix, calling nothing from isingcert and nothing the tracer wraps, is timed
# before a pass, after each timed CLI call (for PROBE_SHARE of the call's
# time) and around each set-up start.  The program's times follow the
# machine's speed less steeply than the probe's: over 25 runs of each
# workload, the log of a run's raw median time had a slope of 0.64
# (dynamics) and 0.71 (gibbs-sweeps) against the log of its median probe
# time.  So the end-to-end times are scaled by (PROBE_SECONDS over the run's
# median probe time) ** PROBE_EXPONENT, and read as seconds at one fixed
# machine speed.  The raw times are printed and kept in the record.
PROBE_SECONDS = 0.050
PROBE_EXPONENT = 0.65
PROBE_SHARE = 0.05


class _ProbeItem:
    __slots__ = ("key", "name")

    def __init__(self, key, name):
        self.key, self.name = key, name


def speed_probe() -> float:
    """Seconds taken by one run of the fixed probe kernel: an integer loop,
    small objects sorted and looked up in a dict, and small numpy array
    operations, in about equal parts.  The garbage collector is off while it
    runs, so the program's live heap does not change the probe's time."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = 0
        for i in range(160_000):
            s += i * i % 7
        items = [_ProbeItem(i % 97, str(i)) for i in range(12_000)]
        items.sort(key=lambda o: (o.key, o.name))
        index = {o.name: o for o in items}
        for o in items:
            s += index[o.name].key
        for i in range(3000):
            a = np.zeros(16)
            a[i % 16] = 1.0
            s += float(np.sum(np.exp(a[::2])))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Runs CLI calls in process, gates their reports and counts failures."""

    def __init__(self, seed: int, work: Path):
        from isingcert import cli

        self.cli = cli
        self.seed, self.work = seed, work
        self.attempted = 0                      # calls made; a call's id is its index
        self.failed: set[int] = set()           # ids of failed calls
        self.failures: list[str] = []           # why each failure happened
        self.reference: dict[str, dict] = {}   # call label -> first report files
        self.probes: list[float] = []           # speed_probe times of the run

    def fail(self, ids, what: str, why: str) -> None:
        self.failed.update(ids)
        self.failures.append(f"{what}: {why}")
        print(f"FAILED {what}: {why}", file=sys.stderr)

    def run(self, call, gated: bool = True, main=None):
        """Time one CLI call; returns (id, seconds, payload, files)."""
        out = self.work / call.label
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cfg = self.work / f"{call.label}.json"
        cfg.write_text(json.dumps(call.config(self.seed)))
        main = main or self.cli.main
        cid = self.attempted
        self.attempted += 1
        gc.collect()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = main(["--config", str(cfg), "--out", str(out)])
                seconds = time.perf_counter() - t0
        except (Exception, SystemExit):   # a raising call is a failed call
            traceback.print_exc()
            self.fail([cid], call.label, "raised")
            return cid, 0.0, None, None
        if rc != 0:
            self.fail([cid], call.label, f"exit code {rc}")
            return cid, seconds, None, None
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        reports = [name for name in files if name.endswith(".json")]
        if len(reports) != 1:
            self.fail([cid], call.label, f"expected one JSON report, found {reports}")
            return cid, seconds, None, files
        payload = json.loads(files[reports[0]])
        why = gate(call.task, payload) if gated else None
        if why is None and self.reference.setdefault(call.label, files) != files:
            why = "report bytes differ from the first call with this seed"
        if why is not None:
            self.fail([cid], call.label, why)
        return cid, seconds, payload, files

    def probe(self, seconds: float = 0.0) -> None:
        """Time the probe kernel once, then again until `seconds` have passed."""
        end = time.perf_counter() + seconds
        self.probes.append(speed_probe())
        while time.perf_counter() < end:
            self.probes.append(speed_probe())

    def run_pass(self, calls, main=None, probe=True) -> dict:
        """One pass over a workload's calls: wall, per-task seconds, reports.
        With `probe`, the machine speed is probed before the first call and
        after each call."""
        result = {"wall": 0.0, "fanout_wall": 0.0, "tasks": {}, "payloads": [],
                  "calls": [], "ids": []}
        if probe:
            self.probe()
        for call in calls:
            invoke = main(call) if main else None
            cid, seconds, payload, files = self.run(call, main=invoke)
            if probe:
                self.probe(PROBE_SHARE * seconds)
            result["ids"].append(cid)
            result["wall"] += seconds
            if call.parallelism > 1:
                result["fanout_wall"] += seconds
            metric = task_metric(call.task)
            result["tasks"][metric] = result["tasks"].get(metric, 0.0) + seconds
            result["payloads"].append((call.task, payload))
            result["calls"].append((call, cid, files))
        return result

    def check_fanout(self, parallel: dict, serial: dict) -> None:
        """Per-trial records at parallelism 1 must equal those of the fanned-out
        calls of `parallel`."""
        def records(files):
            out = {}
            for name, data in (files or {}).items():
                if name.endswith(".json"):
                    payload = json.loads(data)
                    payload["resolved_config"].pop("parallelism", None)
                    out[name] = payload
                else:
                    out[name] = data
            return out

        twins = {replace(call, parallelism=1): files
                 for call, _, files in parallel["calls"] if call.parallelism > 1}
        for call, cid, files in serial["calls"]:
            if records(files) != records(twins[call]):
                self.fail([cid], call.label, "records differ between parallelism 1 and 2")

    def setup_times(self, starts: int) -> list[float]:
        """Wall time of fresh CLI processes, each from exec to exit; the
        machine speed is probed before each start and after the last."""
        cfg = self.work / "setup.json"
        cfg.write_text(json.dumps({**SETUP_CONFIG, "seed": self.seed}))
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        times = []
        for i in range(starts):
            self.probe()
            out = self.work / "setup-out"
            cid = self.attempted
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", SETUP_CODE, "--config", str(cfg), "--out", str(out)],
                    env=env, cwd=self.work, capture_output=True, timeout=30,
                )
            except subprocess.TimeoutExpired:   # run() has killed and reaped it
                self.fail([cid], f"setup start {i}", "no exit within 30 s")
                continue
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                self.fail([cid], f"setup start {i}", f"exit code {proc.returncode}: "
                          f"{proc.stderr.decode(errors='replace').strip()[-500:]}")
        if starts:
            self.probe()
        return times


def timed_passes(run_pass, seconds: float, min_passes: int) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass())
    return passes


def speedup(serial: list[dict], parallel: list[dict]) -> float:
    """Median wall of the fanned-out calls at parallelism 1 (`serial` passes
    of those calls alone) over their median wall in the `parallel` passes."""
    if not serial:
        return 0.0
    return median([p["wall"] for p in serial]) / median([p["fanout_wall"] for p in parallel])


def experiments_charged(pass_result: dict) -> int:
    return sum(
        trial["ledger"]["experiment_count"]
        for task, payload in pass_result["payloads"]
        if task == "certify-dynamics" and payload
        for trial in payload["trials"]
    )


def trials_run(pass_result: dict) -> int:
    return sum(
        len(payload["trials"]) + len(payload.get("footnote_trials", []))
        for _, payload in pass_result["payloads"] if payload
    )


def p90(values) -> float:
    """90th percentile, interpolated within the data even for few samples."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload, runner: Runner, seconds: float) -> dict:
    """Untraced run: end-to-end metrics."""
    for call in workload.warmup:
        runner.run(call, gated=False)
    setup = []

    def timed_pass():
        setup.extend(runner.setup_times(SETUP_STARTS_PER_PASS))
        return runner.run_pass(workload.calls)

    # two passes at least, so every call is checked against a same-seed repeat
    passes = timed_passes(timed_pass, seconds, 2)
    setup.extend(runner.setup_times(max(0, SETUP_STARTS - len(setup))))
    extra = {}
    if workload.fanout_calls:
        serial = runner.run_pass(workload.fanout_calls)
        runner.check_fanout(passes[0], serial)
        extra["fanout_speedup"] = speedup([serial], passes)
    self_ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # seconds at the probe's fixed machine speed; see PROBE_SECONDS
    scale = (PROBE_SECONDS / median(runner.probes)) ** PROBE_EXPONENT
    walls = [p["wall"] for p in passes]
    metrics = {
        "setup_s": (scale * median(setup), "s"),
        "wall_s": (scale * median(walls), "s"),
        "peak_rss_mb": ((self_ru + child_ru) / 1024.0, "MB"),
    }
    table = {m: (scale * median([p["tasks"][m] for p in passes]), "s")
             for m in passes[0]["tasks"]}
    table["setup_raw_s"] = (median(setup), "s")
    table["wall_raw_s"] = (median(walls), "s")
    table["speed_scale"] = (scale, "x")
    record = {"setup_raw_s": setup, "pass_wall_raw_s": walls, "probe_s": runner.probes,
              **extra}
    return {"metrics": metrics, "table": table, "record": record}


def measure_traced(workload, runner: Runner, seconds: float) -> dict:
    """Untraced and traced passes in turn: per-layer metrics.

    Traced passes run at parallelism 1 so that every span stays in this
    process.  Pairing each traced pass with the untraced pass just before it
    keeps drift in machine speed out of the tracing overhead, so all times
    here are raw: the layers' self times then add up to the traced wall.
    """
    for call in workload.warmup:
        runner.run(call, gated=False)
    serial_calls = workload.serial_calls
    tracer = Tracer()
    untraced, traced, fanout = [], [], []

    def traced_main(call):
        tracer.request = f"{len(traced)}:{call.label}"
        return tracer.wrap("tasks." + call.task, runner.cli.main)

    def pass_pair():
        p = runner.run_pass(workload.calls, probe=False)
        p["serial_wall"] = p["wall"]
        if workload.fanout_calls:
            serial = runner.run_pass(workload.fanout_calls, probe=False)
            runner.check_fanout(p, serial)
            fanout.append(serial)
            p["serial_wall"] += serial["wall"] - p["fanout_wall"]
        untraced.append(p)
        tracer.agg = {}
        with tracer.installed():
            t = runner.run_pass(serial_calls, main=traced_main, probe=False)
        t["agg"] = tracer.agg
        traced.append(t)
        via_plan = tracer.agg.get("dynamics.charge_plan", [0, 0.0, 0])[2]
        ledgers = experiments_charged(t)
        if via_plan != ledgers:
            runner.fail(t["ids"], "trace cross-check", f"charge_plan charged {via_plan} "
                        f"experiments, the ledgers report {ledgers}")
        return t

    timed_passes(pass_pair, seconds, 1)

    metrics = {
        name: (median([p["agg"].get(layer, [0, 0.0, 0])[slot] for p in traced]), unit)
        for name, unit, layer, slot in layer_metrics()
    }
    certify = [s[4] - s[3] for s in tracer.spans if s[0] == "certifier.certify"]
    serial_walls = [p["serial_wall"] for p in untraced]
    metrics.update({
        "certifier.certify.p50_s": (median(certify), "s"),
        "certifier.certify.p90_s": (p90(certify), "s"),
        "dynamics.experiments_charged": (median([experiments_charged(p) for p in traced]),
                                         "count"),
        "tasks.trials": (median([trials_run(p) for p in traced]), "count"),
        "tasks.self_s": (median([sum(v[1] for k, v in p["agg"].items()
                                     if k.startswith("tasks.")) for p in traced]), "s"),
        "tasks.fanout_speedup": (speedup(fanout, untraced), "x"),
        "trace.overhead_s": (median([t["wall"] - u for t, u in zip(traced, serial_walls)]),
                             "s"),
    })
    # untraced per-task wall times; 0 for a task the workload does not run
    for metric in map(task_metric, TASKS):
        metrics[metric] = (median([p["tasks"].get(metric, 0.0) for p in untraced]), "s")
    record = {
        "untraced_wall_s": [p["wall"] for p in untraced],
        "untraced_serial_wall_s": serial_walls,
        "traced_wall_s": [p["wall"] for p in traced],
        "traced_layers": [p["agg"] for p in traced],
        # equals traced_wall_s up to the wrappers' own cost outside the layers
        "traced_self_sum_s": [sum(v[1] for v in p["agg"].values()) for p in traced],
        "spans": tracer.spans,
        "missing_layers": tracer.missing,
        "certify_latency_samples": len(certify),
    }
    return {"metrics": metrics, "record": record}


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not (SRC / "isingcert" / "cli.py").is_file():
        print(f"error: no isingcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import isingcert

    if not Path(isingcert.__file__).resolve().is_relative_to(SRC):
        print(f"error: isingcert imported from {isingcert.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    widest = max(c.parallelism for c in workload.calls + workload.warmup)
    if widest > env["nproc"]:
        print(f"error: parallelism {widest} exceeds nproc {env['nproc']}", file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args.seed % 2**63, work)
        run = measure_traced if args.trace else measure
        result = run(workload, runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still be using it
            work.parent.rmdir()

    failed = len(runner.failed)
    table = {**result["metrics"], **result.get("table", {}),
             "failed_frac": (failed / runner.attempted, "1")}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "attempted": runner.attempted,
        "failures": runner.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
        **result["record"],
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print("# environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in table.items():
        print(f"# {name:<40} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
