"""The benchmark's traced functions still exist in the program.

perfbench/tracing.py wraps functions by (module, name); a refactor that
renames or removes one would break the traced benchmark run without failing
any test of the program. The tracer file is only read here, not imported.
"""

import ast
import importlib
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _targets():
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPAN_TARGETS", "COUNT_TARGETS"):
                found[name] = ast.literal_eval(node.value)
    assert set(found) == {"SPAN_TARGETS", "COUNT_TARGETS"}
    return [pair for name in sorted(found) for pair in found[name]]


@pytest.mark.parametrize("module, function", _targets())
def test_traced_function_resolves_to_a_callable(module, function):
    assert module.startswith("sdrelax.")
    assert callable(getattr(importlib.import_module(module), function, None))
