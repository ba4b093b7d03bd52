"""pytest imports the package from src/ (`pythonpath` in pyproject.toml);
this puts src/ on PYTHONPATH too, so that `python -m isingcert.cli` run by a
test imports the same working tree."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
