"""The benchmark tracer's targets name functions that exist.

``perfbench/run.py --trace 1`` wraps each (module, attribute) of
``perfbench/tracer.py``'s TARGETS and fails with an AttributeError when a
traced function is renamed or removed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer     # its dataclasses look themselves up
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return [(module, attr) for module, attr, _ in tracer.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_function_exists(module, attr):
    mod = importlib.import_module(f"casimir_bvl.{module}")
    assert callable(getattr(mod, attr, None)), f"casimir_bvl.{module}.{attr}"
