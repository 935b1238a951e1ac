"""perfbench/tracer.py wraps curvhom functions by (module, name) with
getattr at install time, so deleting or renaming one of them breaks every
traced benchmark run; this pins the names it looks up."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = _load_tracer()
    wrapped = tracer.SPANNED + tracer.COUNTED
    assert wrapped
    missing = [
        f"curvhom.{module}.{func}"
        for module, func, _ in wrapped
        if not callable(getattr(importlib.import_module(f"curvhom.{module}"), func, None))
    ]
    assert missing == []
