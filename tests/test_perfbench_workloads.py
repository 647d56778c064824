"""The benchmark's workloads run against the library and pass their checks.

``perfbench/workloads.py`` calls lnsrlab through contracts the benchmark
relies on (``knn``'s return, ``run_training``'s result, the spectra); a
change to one would otherwise surface only when the benchmark runs.
These checks load that file and ``meter.py`` by path, unchanged, and run
one pass of each workload at seed 1 with its own checks.  They pin no
digest: the outputs depend on the BLAS.
"""

import importlib.util
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def meter():
    return _load("meter")


@pytest.mark.parametrize("name", ["gap", "probe", "geometry"])
def test_one_pass_passes_its_checks(workloads, meter, name):
    wl = workloads.WORKLOADS[name](1)
    state = wl.setup()
    requests = wl.run_pass(state, 0, meter.Meter(time.perf_counter))
    assert requests
    assert wl.check(state, requests) == []


def test_geometry_tie_lattice_check(workloads):
    attempted, failures = workloads.WORKLOADS["geometry"](1).extra_checks()
    assert attempted > 0 and failures == []
