"""The benchmark's tracer wraps only public names; keep every traced one public."""

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced_names():
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no TRACED tuple")


def test_traced_functions_are_public():
    names = traced_names()
    assert names
    for name in names:
        module_name, attr = name.split(".")
        mod = importlib.import_module(f"logcy.{module_name}")
        assert attr in mod.__all__, name
        fn = getattr(mod, attr)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
