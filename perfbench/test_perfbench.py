"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

They run real workload ops at small budgets (about two minutes in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

os.environ.update(run.BLAS_PIN)
os.environ.pop(run.THREADS_ENV_VAR, None)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
LISTED = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture
def workdir():
    path = os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _ready(name, workdir, seed=11):
    wl = run.make_workload(name, seed, workdir)
    wl.setup()
    return wl


def test_listed_workloads_match_benchmark_json():
    assert set(LISTED) == set(workloads.WORKLOADS)
    assert not set(LISTED) & set(workloads.EXTRA_WORKLOADS)


def test_design_large_all_keeps_known_failures_in_the_mix(workdir):
    wl = _ready("design-large-all", workdir)
    assert wl.N == 1001
    assert {"quadratic", "sqrt_boundary"} <= set(wl.families)
    assert len(wl.families) == 5
    results = run.run_rounds(wl, 0.0)  # one round: every family once
    assert sorted(r.op.family for r in results) == sorted(workloads.FAMILIES)
    failed = [r for r in results if not r.ok]
    for r in failed:
        assert r.op.family in ("quadratic", "sqrt_boundary")
        assert r.error.startswith("ValueError")
    metrics, _ = run.e2e_metrics(results, [1.0])
    assert metrics["fail_frac"] == len(failed) / 5


class _RaisingWorkload(workloads.Workload):
    name = "raising"
    families = ("good", "bad")

    def run(self, op):
        if op.family == "bad":
            raise ValueError("weights must be positive")
        return op.family

    def check(self, op, output):
        return 0.0

    def reference(self):
        pass


def test_raised_value_error_counts_as_failed_op(workdir):
    results = run.run_rounds(_RaisingWorkload(0, workdir), 0.0)
    assert [r.ok for r in results] == [True, False]
    assert results[1].error == "ValueError: weights must be positive"
    metrics, _ = run.e2e_metrics(results, [1.0])
    assert metrics["fail_frac"] == 0.5


def test_wrong_outputs_fail_the_check(workdir):
    wl = _ready("ensemble-trace", workdir)
    op = wl.cycle()[0]
    good = wl.run(op)
    assert wl.check(op, good) <= workloads.ENSEMBLE_TOL
    from pstchain.disorder import EnsembleResult

    bad = EnsembleResult(good.times, good.mean_fidelity + 1e-8, good.std_error, good.realizations_used)
    with pytest.raises(workloads.CheckError):
        wl.check(op, bad)


def _fingerprint(output):
    if isinstance(output, str):  # a reproduce output directory
        files = {}
        for name in sorted(os.listdir(output)):
            with open(os.path.join(output, name), "rb") as fh:
                files[name] = fh.read()
        return files
    if hasattr(output, "mean_fidelity"):
        return (output.times.tobytes(), output.mean_fidelity.tobytes(), output.std_error.tobytes())
    return (output.couplings.couplings.tobytes(), output.spectrum.values.tobytes(), output.t_pst)


@pytest.mark.parametrize("name", LISTED)
def test_traced_op_is_bitwise_equal_to_untraced(name, workdir):
    wl = _ready(name, workdir)
    op = wl.cycle()[0]
    plain = wl.run(op)
    expected = _fingerprint(plain)
    wl.release(op, plain)
    t = tracer.Tracer()
    with t.patched():
        t.op = op.index
        traced = wl.run(op)
    assert _fingerprint(traced) == expected
    assert t.spans and not t.absent
    wl.release(op, traced)


def test_missing_names_are_reported_absent(workdir):
    import pstchain.disorder

    original = pstchain.disorder.diagonalize
    gone = (
        tracer.Target("disorder.gone", "pstchain.disorder", "no_such_function"),
        tracer.Target("nowhere.fn", "pstchain.no_such_module", "fn"),
        tracer.Target("dynamics.Gone.check", "pstchain.dynamics", "Gone.__post_init__"),
    )
    wl = _ready("ensemble-trace", workdir)
    t = tracer.Tracer(tracer.TARGETS + gone)
    results = run.run_rounds(wl, 0.0, t)
    assert all(r.ok for r in results)
    assert t.absent == ["disorder.gone", "nowhere.fn", "dynamics.Gone.check"]
    metrics = tracer.layer_metrics(t.spans, len(results), sum(r.seconds for r in results))
    assert metrics["disorder.run_ensemble.realizations"] == wl.NAV
    assert pstchain.disorder.diagonalize is original  # restored after the round


def _count_metrics(metrics):
    names = [m for m, _, _ in tracer._COUNT_METRICS] + [m for m, _ in tracer._UNIQUE_METRICS]
    return {m: metrics[m] for m in names + ["spectra.pst_time.useful_ratio"]}


@pytest.mark.parametrize("name", LISTED)
def test_traced_counts_repeat_exactly(name, workdir):
    counts = []
    for _ in range(2):
        wl = _ready(name, workdir, seed=5)
        _, metrics, _, _ = run.traced_metrics(wl, 0.0, workdir)
        counts.append(_count_metrics(metrics))
    assert counts[0] == counts[1]
    assert any(v > 0 for v in counts[0].values())


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble-trace", "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    record = next(l for l in proc.stdout.splitlines() if l.startswith("record "))
    env = json.loads(record[len("record "):])["environment"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "numpy_blas",
                "blas_pin", "n_workers", "workload_seed", "git_commit"):
        assert key in env


def test_refuses_to_run_without_the_program(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    value, pct = run.tail(list(range(20)))
    assert value == 9 and pct == 50.0


def test_self_time_subtracts_overlapping_children():
    spans = [
        tracer.Span(0, "p", None, 0, 1, 0.0, 10.0),
        tracer.Span(1, "c", 0, 0, 2, 1.0, 4.0),
        tracer.Span(2, "c", 0, 0, 3, 3.0, 6.0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert np.isclose(selfs[1], 3.0) and np.isclose(selfs[2], 3.0)
