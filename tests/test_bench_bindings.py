"""The benchmark's tracer wraps tapgen functions where they are bound, by
(module, attribute) pairs. A binding that a change removes would break only
the traced benchmark runs, so these tests check each pair here."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = tracing_module()


@pytest.mark.parametrize("module_name, attr", [
    (module_name, attr) for module_name, attr, _ in (*tracing.SPANNED, *tracing.COUNTED)
])
def test_every_traced_binding_is_a_tapgen_callable(module_name, attr):
    assert module_name.startswith("tapgen.")
    assert callable(getattr(importlib.import_module(module_name), attr, None))
