"""Boundary fuzz of the CLI's configs: no config reaches a traceback.

Every param of every task and arm takes each edge value of a fixed list, one
param at a time; then every two params of a task and arm take the same
number together, or a support takes each of its edge values beside each
number.  Then each top-level key of every task and arm takes its edge
values alone: `seed`, `trials` and `parallelism` the same numbers, and
`out` an empty path, a NUL, a 300-character component and a path below a
file.  Each config runs in process through `cli.main`, with trials
forbidden: `cli.main` must return 2, 3 or 4 with a message, or the config
must pass its config step and reach its first trial, where the sentinel of
`forbid_trials` stops it.  Anything else fails the test and names the config.

A driver builds what its trials share before the first trial, so a new
param can put a costly set-up there: the test runs with at most 3 GB of
address space beyond what its process maps at the start, and a 30 s
alarm, both on its own process and both restored afterwards.
"""

import contextlib
import io
import itertools
import json
import math
import resource
import signal

import pytest

import isingcert.tasks as tasks
from isingcert.cli import main
from test_cli import forbid_trials

NUMBERS = (0, -0.0, 1, -1, 5e-324, 1e-310, 1e300, 1.7e308, math.inf, -math.inf, math.nan,
           2**31, 2**63)
SUPPORTS = ([], ["ZI", "ZI", "ZZ"])   # empty, and one string twice
TOP_NUMBERS = ("seed", "trials", "parallelism")
MESSAGES = {2: "config error: ", 3: "budget overrun: ", 4: "promise violation: "}
TRIAL_RAN = "a trial ran before the config was rejected"
ADDRESS_SPACE = 3 * 2**30
ALARM_S = 30


def edge_values(default):
    return SUPPORTS if isinstance(default, list) else NUMBERS


def base_configs():
    """(task, params) per task, and per arm for a task with arms."""
    for task, spec in tasks.TASKS.items():
        if spec.arms:
            yield from ((task, {"arm": arm}) for arm in spec.arms)
        else:
            yield task, {}


def pair_values(a_default, b_default):
    """Edge values for two params together: the same number for both, or a
    support beside every number."""
    a_values, b_values = edge_values(a_default), edge_values(b_default)
    if a_values is b_values:
        return zip(a_values, b_values)
    return itertools.product(a_values, b_values)


def out_values(tmp_path):
    """Edge values of `out`: empty (the default directory), a NUL, a
    300-character component, and a path below a file."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    return "", "a\0b", "x" * 300, str(blocker / "sub")


def fuzz_configs(outs):
    """(task, params, top-level keys): every param alone at every edge
    value, then every two params of a task at edge values together, then
    each top-level key alone at its edge values, `out` at `outs`."""
    for task, base in base_configs():
        spec = tasks.TASKS[task]
        schema = {**spec.params, **spec.optional}
        for key, default in schema.items():
            for value in edge_values(default):
                yield task, {**base, key: value}, {}
        for (a, a_default), (b, b_default) in itertools.combinations(schema.items(), 2):
            for value_a, value_b in pair_values(a_default, b_default):
                yield task, {**base, a: value_a, b: value_b}, {}
        for key in TOP_NUMBERS:
            for value in NUMBERS:
                yield task, base, {key: value}
        for out in outs:
            yield task, base, {"out": out}


class Alarm(Exception):
    pass


@pytest.fixture
def guarded():
    """A soft limit of 3 GB over the address space this process already
    maps (Linux), and a 30 s alarm, both restored afterwards."""
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * resource.getpagesize()
    limits = resource.getrlimit(resource.RLIMIT_AS)
    soft = mapped + ADDRESS_SPACE
    if limits[1] != resource.RLIM_INFINITY:
        soft = min(soft, limits[1])

    def ring(signum, frame):
        raise Alarm(f"the fuzz ran past {ALARM_S} s")

    handler = signal.signal(signal.SIGALRM, ring)
    resource.setrlimit(resource.RLIMIT_AS, (soft, limits[1]))
    signal.alarm(ALARM_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
        resource.setrlimit(resource.RLIMIT_AS, limits)


def test_no_config_reaches_a_traceback(tmp_path, monkeypatch, guarded):
    forbid_trials(monkeypatch)
    monkeypatch.chdir(tmp_path)   # an empty `out` names ./out
    monkeypatch.delenv("ISINGCERT_OUT", raising=False)
    path, out_dir = tmp_path / "config.json", str(tmp_path / "out")
    ran = 0
    for task, params, top in fuzz_configs(out_values(tmp_path)):
        config = {"schema_version": 1, "task": task, "trials": 2, "params": params, **top}
        path.write_text(json.dumps(config))
        flags = [] if "out" in top else ["--out", out_dir]   # --out would override it
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = main(["--config", str(path), *flags])
        except AssertionError as exc:
            assert str(exc) == TRIAL_RAN, f"{config!r} raised {exc!r}"
            ran += 1
        except Exception as exc:
            pytest.fail(f"{config!r} raised {exc!r}")
        else:
            prefix = MESSAGES.get(code)
            message = err.getvalue()
            assert prefix and message.startswith(prefix) and len(message) > len(prefix) + 1, \
                f"{config!r} returned {code} with {message!r}"
    assert ran > 0
