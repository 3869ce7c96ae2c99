"""The benchmark's tracer finds every scipy entry point it wraps.

``perfbench/tracing.py`` looks up each ``(module, attribute)`` of its
``SCIPY_ENTRY_POINTS`` on ``degcalc.<module>`` by name, so a solver that
drops or renames one of those imports breaks every traced run.  The tuple is
read from the source with ``ast``, without importing perfbench.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def scipy_entry_points():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "SCIPY_ENTRY_POINTS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("SCIPY_ENTRY_POINTS not found in tracing.py")


def test_scipy_entry_points_resolve():
    points = scipy_entry_points()
    assert points
    for module, attr in points:
        owner = importlib.import_module(f"degcalc.{module}")
        assert callable(getattr(owner, attr, None)), f"degcalc.{module}.{attr}"
