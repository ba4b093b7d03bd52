"""Canonical report serialization: byte-stable JSON plus CSV plot tables.

Reports never contain timestamps or wall-clock data, so a fixed seed yields
byte-identical files.  Floats go through Python's shortest round-trip repr.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

from .errors import ConfigError


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def default_out_dir() -> Path:
    return Path(os.environ.get("ISINGCERT_OUT", "out"))


def check_out_dir(out_dir: Path) -> None:
    """Raise ConfigError when `write_report` could not make `out_dir` a
    directory: it, or the nearest of its ancestors that exists, is no
    directory, or statting one of them fails other than by its absence
    (a NUL in the path, a component too long, no permission)."""
    for path in (out_dir, *out_dir.parents):
        try:
            if stat.S_ISDIR(os.stat(path).st_mode):
                return
        except (FileNotFoundError, NotADirectoryError):
            pass
        except (OSError, ValueError) as exc:
            reason = getattr(exc, "strerror", None) or exc   # an OSError's names the path again
            raise ConfigError(f"out path {str(out_dir)!r} is unusable: {reason}") from None
        if os.path.lexists(path):
            raise ConfigError(f"out path {out_dir} cannot be a directory: {path} is not one")


def csv_text(header: list[str], rows: list[list]) -> str:
    """The table as csv.writer's default dialect writes the ints, floats and
    fixed words of the reports: str() of each field (repr, for floats),
    joined by commas, each line ending in CRLF.  Where csv would quote a
    field (one holding a comma, a double quote, CR or LF) or write None as
    an empty field, this raises ValueError instead."""
    table = [header, *rows]
    text = "\r\n".join([",".join(map(str, row)) for row in table]) + "\r\n"
    if (text.count(",") != sum(len(row) - 1 for row in table if row) or '"' in text
            or text.count("\r") != len(table) or text.count("\n") != len(table)
            or "None" in text and any(None in row for row in table)):
        raise ValueError("a CSV field is None or holds a comma, a double quote or a line break")
    return text


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
        texts[out_dir / f"{name}_{table_name}.csv"] = csv_text(header, rows)
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
