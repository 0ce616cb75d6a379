"""The benchmark's per-layer tracer (``perfbench/tracing.py``) wraps gframes
functions by name and counts work from their arguments and results; every
name it lists must still exist, and its counters must still read the call
shapes they expect, or ``perfbench/run.py --trace 1`` fails."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from gframes import cli

from _oracles import fixture_path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("qualified", _tracing_module().FUNCTIONS)
def test_traced_function_resolves(qualified):
    module_name, func_name = qualified.split(".")
    module = importlib.import_module(f"gframes.{module_name}")
    assert callable(getattr(module, func_name, None)), qualified


def test_trace_counters_count_work():
    tracer = _tracing_module().Tracer()
    codes = {}
    tracer.install()
    try:
        for command in cli.COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[command] = cli.main([command, str(fixture_path("figure2"))])
    finally:
        tracer.uninstall()
    assert codes == dict.fromkeys(cli.COMMANDS, 0)
    for metric in ("erasure.d_r.subsets", "walkreg.powers", "linalg.eigh_symmetric.n3"):
        assert tracer.counts[metric] > 0, metric
