"""The benchmark's tracer wraps named entry points of the package; every one
of them must still resolve, or `perfbench/run.py --trace 1` stops working."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_trace_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, targets in spans.ENTRY_POINTS.items():
        for modname, attr in targets:
            obj = importlib.import_module(modname)
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            assert callable(obj), f"{name}: {modname}.{attr} does not resolve"
