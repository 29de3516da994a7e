"""The benchmark traces library functions by name: each name it lists must
still be a public function defined in its lrspp module, or the traced run
reports a layer that no longer exists."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def traced_names() -> tuple[str, ...]:
    """The TRACED tuple of bench/run.py, read without importing the bench."""
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {RUN_PY}")


def test_traced_names_are_listed():
    assert len(traced_names()) > 0


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_public_function(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"lrspp.{module_name}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn), f"lrspp.{name} is not a function"
    assert fn.__module__ == module.__name__, f"lrspp.{name} is defined in {fn.__module__}"
