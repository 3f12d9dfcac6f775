"""Every name the benchmark's tracer wraps still exists in dirlap.

``perfbench/tracing.py`` wraps functions by (module, attribute) from outside
the package, so renaming or folding one of them would break a traced run.
The table is read from the file's source, without importing the module.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _traced_table() -> dict:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


TRACED = _traced_table()


@pytest.mark.parametrize("span", sorted(TRACED))
def test_traced_name_resolves(span):
    module, attribute = TRACED[span]
    assert module == "dirlap" or module.startswith("dirlap.")
    assert callable(getattr(importlib.import_module(module), attribute, None)), \
        f"{span}: {module}.{attribute} is gone"
