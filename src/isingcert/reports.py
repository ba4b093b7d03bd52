"""Canonical report serialization: byte-stable JSON plus CSV plot tables.

Reports never contain timestamps or wall-clock data, so a fixed seed yields
byte-identical files.  Floats go through Python's shortest round-trip repr.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def default_out_dir() -> Path:
    return Path(os.environ.get("ISINGCERT_OUT", "out"))


def write_report(out_dir, name: str, payload: dict,
                 tables: dict[str, tuple[list[str], list[list]]] | None = None) -> Path:
    """Write `<name>.json` and one `<name>_<table>.csv` per table; returns the
    JSON path.

    Each file goes to a temp file in `out_dir` first, and the temp files
    replace their targets only once all of them are written, so a failed
    temp-file write leaves the previous report as it was.  The replaces are
    atomic one file at a time, not as a group: one that fails can leave
    earlier files new and later ones old.  Either way no temp file stays.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"{name}.json"
    texts = {report_path: canonical_json(payload)}
    for table_name, (header, rows) in (tables or {}).items():
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        texts[out_dir / f"{name}_{table_name}.csv"] = buf.getvalue()
    temps = []
    try:
        for path, text in texts.items():
            temps.append(path.with_name(f".{path.name}.{os.getpid()}.tmp"))
            with open(temps[-1], "w", newline="") as fh:
                fh.write(text)
        for temp, path in zip(temps, texts):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)   # the replaced ones are gone already
        raise
    return report_path
