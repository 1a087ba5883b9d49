"""The benchmark's tracer reports timings of dltsched functions by name.

``perfbench/tracing.py`` names the functions whose per-layer figures a
``--trace 1`` run prints, and that run exits 1 when one is missing. The
tracer wraps only public functions defined in their own ``dltsched``
module, so renaming, inlining or making private a named function would
otherwise pass the test suite and fail only the benchmark.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

TRACED = sorted({*tracing.P50_US, *tracing.MEDIAN_S, *tracing.SELF_S, *tracing.OBSERVERS})


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_is_a_public_function_of_its_module(name):
    layer, fn_name = name.split(".")
    assert layer in tracing.LAYERS
    module = importlib.import_module(f"dltsched.{layer}")
    fn = vars(module).get(fn_name)
    assert not fn_name.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
