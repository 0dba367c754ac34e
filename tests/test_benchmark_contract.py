"""What the benchmark under perfbench/ reads from pstchain.

The benchmark's tracer patches pstchain's bindings by name, and its
workloads call pstchain's entry points with fixed signatures.  These tests
fail as soon as a change removes or renames one of them, before a benchmark
run would.
"""

import json
import pathlib
import sys

import pytest

import pstchain.cli  # noqa: F401  loads every pstchain module the tracer patches

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

LISTED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_benchmark_tracer_resolves_every_target():
    # the per-layer view patches the bindings of the loaded pstchain modules,
    # so a binding moved between modules must not silently drop a layer
    t = tracer.Tracer()
    with t.patched():
        pass
    assert t.absent == []


@pytest.mark.parametrize("name", LISTED)
def test_workload_setup_runs(tmp_path, name):
    # set-up calls pstchain exactly as the workload's timed ops do
    workloads.WORKLOADS[name](seed=1, workdir=str(tmp_path)).setup()
