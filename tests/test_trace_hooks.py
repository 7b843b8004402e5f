"""The benchmark's trace hooks name functions that still exist.

`perfbench/spans.py` wraps the dstoch functions listed in its TRACED table;
a rename or removal there would make `perfbench/run.py --trace 1` fail.
The table is read with `ast`, so the benchmark directory is not imported.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    for node in ast.parse(SPANS.read_text()).body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if getattr(target, "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in perfbench/spans.py")


def test_every_traced_hook_resolves():
    traced = _traced()
    assert traced
    for module, attr in traced.values():
        target = importlib.import_module(f"dstoch.{module}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module, attr)
