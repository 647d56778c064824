"""The benchmark's tracer wraps lnsrlab functions by name.

``perfbench/tracer.py`` lists them in ``TRACED`` and ``TENSOR_NON_OPS``; a
renamed or deleted function would only surface as a failure of a traced
benchmark run.  These checks load that file by path, unchanged, and
resolve every name against the library.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracer):
    assert tracer.TRACED
    for mod_name, fn_name in tracer.TRACED:
        module = importlib.import_module(mod_name)
        fn = getattr(module, fn_name, None)
        assert inspect.isfunction(fn), f"{mod_name}.{fn_name} is not a function"
        assert fn.__module__ == mod_name, f"{mod_name}.{fn_name} is defined elsewhere"


def test_tensor_non_ops_exist(tracer):
    tensor = importlib.import_module("lnsrlab.tensor")
    for name in tracer.TENSOR_NON_OPS:
        assert inspect.isfunction(getattr(tensor, name, None)), f"lnsrlab.tensor.{name}"
    assert tracer.tensor_ops(tensor), "no tape operations found"
