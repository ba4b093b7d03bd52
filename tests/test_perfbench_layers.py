"""The benchmark's traced run (perfbench/tracing.py) imports every module its
layer table names: a module that is gone crashes every traced run, while an
attribute that is gone is only reported as a missing layer.  So a module that
leaves src/ has to leave that table too."""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_layer_module_imports():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module in sorted({module for _, module, *_ in tracing.LAYERS}):
        importlib.import_module(module)
