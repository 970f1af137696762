"""The names the benchmark's traced run wraps must exist in the engine.

`perfbench/tracing.py` looks each traced function up by name on its
`foldback` module, and hooks `__post_init__` of the classes whose
constructions it counts. A refactor that renames, removes or nests one
of them would break `--trace 1` without any other test noticing. The
tables are read from the file's source, so nothing of the benchmark is
imported or changed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(name: str):
    """The literal value the tracing module assigns to `name`."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no {name}")


LAYERS = _table("LAYERS")
COUNTED_CLASSES = _table("COUNTED_CLASSES")


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in LAYERS.items() for name in names])
def test_every_traced_name_is_a_module_level_function(module, name):
    engine = importlib.import_module(f"foldback.{module}")
    assert inspect.isfunction(getattr(engine, name, None)), f"foldback.{module}.{name}"


@pytest.mark.parametrize("module,name", COUNTED_CLASSES)
def test_every_counted_class_has_its_own_post_init(module, name):
    cls = getattr(importlib.import_module(f"foldback.{module}"), name, None)
    assert inspect.isclass(cls), f"foldback.{module}.{name}"
    assert "__post_init__" in cls.__dict__
