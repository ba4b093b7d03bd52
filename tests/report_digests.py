"""Print the sha256 of every report file that a fixed set of CLI runs writes,
and of the printed constants ledger.

The runs are every timed and warm-up call of every workload in
perfbench/workloads.py, and every config of tests/test_reachability.MATRIX
that is a dict and exits 0, each at seeds 1, 7 and 42.  Each output line is
`sha256  label-seed/file`; a run that does not exit 0 prints
`exit <code>  label-seed` instead.  The labels are the workload calls' own
labels and `matrix<i>` for MATRIX row i.  A last line,
`sha256  --constants`, digests the stdout of `isingcert --constants`, the
printed ledger table.

    python tests/report_digests.py [ROOT]

runs the checkout at ROOT (default: the one holding this file), from its own
src/, perfbench/workloads.py and tests/test_reachability.py.  So a change
keeps every report and ledger byte when

    diff <(python tests/report_digests.py PARENT) <(python tests/report_digests.py)

prints nothing, where PARENT is a checkout of the parent commit.  pytest
does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7, 42)


def runs() -> list[tuple[str, dict, list[str]]]:
    """(label, config, extra flags) of every run, in order; each seed of
    SEEDS replaces the config's."""
    from perfbench.workloads import WORKLOADS
    from test_reachability import MATRIX

    out = []
    for workload in WORKLOADS.values():
        for call in (*workload.calls, *workload.warmup):
            out.append((call.label, call.config(0), []))
    for i, (code, config, flags, _) in enumerate(MATRIX):
        if code == 0 and isinstance(config, dict):
            out.append((f"matrix{i}", {"schema_version": 1, **config}, list(flags)))
    return out


def digests(root: Path) -> list[str]:
    sys.path[:0] = [str(root / "src"), str(root), str(root / "tests")]
    from isingcert.cli import main

    lines = []
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for i, (label, config, flags) in enumerate(runs()):
            for seed in SEEDS:
                name = f"{label}-{seed}"
                path = work / f"config{i}-{seed}.json"
                path.write_text(json.dumps({**config, "seed": seed}))
                out = work / f"out{i}-{seed}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main([*flags, "--config", str(path), "--out", str(out)])
                if code:
                    lines.append(f"exit {code}  {name}")
                    continue
                lines += [f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {name}/{f.name}"
                          for f in sorted(out.iterdir())]
    with contextlib.redirect_stdout(io.StringIO()) as table:
        main(["--constants"])
    lines.append(f"{hashlib.sha256(table.getvalue().encode()).hexdigest()}  --constants")
    return lines


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    print(*digests(root.resolve()), sep="\n")
