"""Benchmark for pstchain: one seeded workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark imports pstchain from ./src
and measures whole rounds of the workload's ops until S seconds of op time
have passed; every op is checked against an independent oracle outside the
timed region.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs untraced rounds for half the time, then traced rounds,
and reports per-layer metrics.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
THREADS_ENV_VAR = "PSTCHAIN_THREADS"
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

E2E_UNITS = {
    "op_p50_ref": "ref",
    "ops_per_ref": "1/ref",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fail_frac": "1",
    "ref_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: End-to-end metrics on the result line (BENCHMARK.json end_to_end).  Op
#: times there are in units of the workload's reference kernel, timed next to
#: each op, so that the host's speed drifts cancel; the wall-clock figures
#: are printed in the table and the record.
RESULT_E2E = ("op_p50_ref", "ops_per_ref", "peak_rss_mb", "setup_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare_interpreter() -> None:
    """Pin BLAS to one thread and make ./src importable, before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin")
    os.environ.update(BLAS_PIN)
    os.environ.pop(THREADS_ENV_VAR, None)
    if not os.path.isfile(os.path.join(SRC, "pstchain", "__init__.py")):
        raise FileNotFoundError(f"no pstchain sources under {SRC}")
    sys.path.insert(0, SRC)
    import pstchain

    if not os.path.abspath(pstchain.__file__).startswith(SRC + os.sep):
        raise ImportError(f"pstchain imported from {pstchain.__file__}, not {SRC}")


def make_workload(name: str, seed: int, workdir: str):
    import workloads

    known = workloads.WORKLOADS | workloads.EXTRA_WORKLOADS
    if name not in known:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(known)}")
    return known[name](seed, workdir)


class NothingSucceeded(RuntimeError):
    """Every op failed, so there is nothing to time."""

    def __init__(self, results):
        errors = sorted({r.error for r in results})
        super().__init__(f"all {len(results)} ops failed: " + "; ".join(errors))


@dataclass
class OpResult:
    op: object
    round: int
    seconds: float
    error: str | None
    dev: float | None
    wrong: bool = False  # the output was returned but failed its check
    ref_seconds: float = 0.0  # the reference kernel's time around the op

    @property
    def ok(self) -> bool:
        return self.error is None


def run_rounds(workload, budget_s: float, tracer=None) -> list[OpResult]:
    """Whole rounds of ops until `budget_s` of op time has passed.

    Only the op itself is timed; its check and clean-up run after.
    """
    import workloads

    results = []
    refs = []
    spent = 0.0
    for round_ in itertools.count():
        for op in workload.cycle():
            output, error = None, None
            refs.append(_timed(workload.reference))
            with tracer.patched() if tracer else contextlib.nullcontext():
                if tracer:
                    tracer.op = op.index
                t0 = time.perf_counter()
                try:
                    output = workload.run(op)
                except Exception as exc:  # a failed op is counted, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0
            dev, wrong = None, False
            if error is None:
                try:
                    dev = workload.check(op, output)
                except workloads.CheckError as exc:
                    error, wrong = f"wrong output: {exc}", True
            workload.release(op, output)
            spent += seconds
            results.append(OpResult(op, round_, seconds, error, dev, wrong))
        if spent >= budget_s:
            break
    refs.append(_timed(workload.reference))
    # op k ran between refs[k] and refs[k + 1]; the median of the four
    # nearest timings follows the machine's drift without one sample's noise
    for k, r in enumerate(results):
        r.ref_seconds = statistics.median(refs[max(0, k - 1) : k + 3])
    return results


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def tail(ok_seconds: list[float]):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    n = len(ok_seconds)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(ok_seconds)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Wall time from interpreter launch to the end of set-up, repeated."""
    samples = []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            rest = proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code}): {line}{rest}")
    return samples


def environment(workload) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps.get('name')} {deps.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "n_workers": workload.n_workers,
        "workload_seed": workload.seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def e2e_metrics(results, setup_samples) -> tuple[dict, dict]:
    """End-to-end metrics and a note on how each was measured."""
    ok = [r.seconds for r in results if r.ok]
    if not ok:
        raise NothingSucceeded(results)
    rounds = {}
    for r in results:
        n_ok, seconds, refs = rounds.get(r.round, (0, 0.0, 0.0))
        rounds[r.round] = (n_ok + r.ok, seconds + r.seconds, refs + r.seconds / r.ref_seconds)
    metrics = {
        "op_p50_ref": statistics.median(r.seconds / r.ref_seconds for r in results if r.ok),
        "ops_per_ref": statistics.median(n_ok / refs for n_ok, _, refs in rounds.values()),
        "ops_per_s": statistics.median(n_ok / seconds for n_ok, seconds, _ in rounds.values()),
        "op_p50_ms": 1e3 * statistics.median(ok),
        "op_tail_ms": None,
        "fail_frac": sum(not r.ok for r in results) / len(results),
        "ref_ms": 1e3 * statistics.median(r.ref_seconds for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }
    notes = {
        "op_p50_ref": "median of op time / the reference kernel's median time around the op",
        "ops_per_ref": f"median over {len(rounds)} rounds of successful ops per reference time",
        "ref_ms": "median reference-kernel time next to the ops",
        "ops_per_s": f"median over {len(rounds)} rounds; {len(ok)} successful ops "
                     f"in {sum(r.seconds for r in results):.3f} s of op time",
        "op_p50_ms": f"median of {len(ok)} successful ops",
        "fail_frac": f"{len(results) - len(ok)} of {len(results)} attempted ops failed",
        "peak_rss_mb": "peak resident set of this process",
        "setup_s": f"median of {len(setup_samples)} fresh-interpreter set-ups",
    }
    t = tail(ok)
    if t is None:
        notes["op_tail_ms"] = f"not measured: needs > {TAIL_BEYOND} successful ops, have {len(ok)}"
    else:
        metrics["op_tail_ms"] = 1e3 * t[0]
        notes["op_tail_ms"] = f"p{t[1]:.1f} of {len(ok)} successful ops, {TAIL_BEYOND} beyond it"
    return metrics, notes


def traced_metrics(workload, budget_s: float, root_out: str):
    import tracer as tracing

    plain = run_rounds(workload, budget_s / 2)
    tracer = tracing.Tracer()
    traced = run_rounds(workload, budget_s / 2, tracer)
    traced_ok = [r.seconds for r in traced if r.ok]
    plain_ok = [r.seconds for r in plain if r.ok]
    if not (traced_ok and plain_ok):
        raise NothingSucceeded(plain + traced)
    spans = [s for s in tracer.spans if s.op is not None]
    metrics = tracing.layer_metrics(spans, len(traced), sum(r.seconds for r in traced))
    metrics["trace.overhead_frac"] = statistics.median(traced_ok) / statistics.median(plain_ok) - 1.0
    devs = [r.dev for r in plain + traced if r.dev is not None]
    metrics["check.max_ref_dev"] = max(devs) if devs else 0.0
    units = dict(tracing.LAYER_METRICS)
    units |= {"trace.overhead_frac": "1", "trace.coverage_frac": "1", "check.max_ref_dev": "1"}
    os.makedirs(root_out, exist_ok=True)
    span_file = os.path.join(root_out, f"spans-{workload.name}-s{workload.seed}.csv")
    tracing.write_spans(span_file, spans)
    extra = {"absent": tracer.absent, "spans": len(spans), "span_file": os.path.relpath(span_file, ROOT)}
    return plain + traced, metrics, units, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_interpreter()
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        workload.setup()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            results, metrics, units, extra = traced_metrics(
                workload, args.seconds, os.path.join(ROOT, ".perfbench_out")
            )
            reported = metrics
            notes = {}
        else:
            results = run_rounds(workload, args.seconds)
            metrics, notes = e2e_metrics(results, measure_setup(args.workload, args.seed))
            units = E2E_UNITS
            reported = {k: metrics[k] for k in RESULT_E2E}
            extra = {}
    except NothingSucceeded as exc:
        print(f"perfbench {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    failed = [r for r in results if not r.ok]
    correct = not any(r.wrong for r in failed)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"ops={len(results)} failed={len(failed)}")
    for name, value in metrics.items():
        shown = "-" if value is None else f"{value:.6g} {units[name]}"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {shown:>22}{note}")
    errors = sorted({r.error for r in failed})
    for error in errors:
        print(f"  failure: {error}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(workload),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": errors,
    } | extra
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
