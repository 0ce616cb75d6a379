"""The benchmark's per-layer tracer (``perfbench/tracing.py``) wraps gframes
functions by name; every name it lists must still exist, or
``perfbench/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_functions() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS


@pytest.mark.parametrize("qualified", _traced_functions())
def test_traced_function_resolves(qualified):
    module_name, func_name = qualified.split(".")
    module = importlib.import_module(f"gframes.{module_name}")
    assert callable(getattr(module, func_name, None)), qualified
