"""Spans around pstchain's public functions, patched in from outside.

`Tracer.patched()` replaces every module-level binding of each target in the
loaded `pstchain.*` modules with a wrapper that records one span per call:
name, start, end, parent span, thread and op id, plus exact work counts
derived from the call's arguments and result.  Modules import names
directly (`pstchain.disorder.diagonalize`, `pstchain.cli.design_chain`), so
every binding is patched, not only the defining one.  A target that no
longer exists is reported as absent with zero calls.

Spans stay in memory until `write_spans`; `layer_metrics` turns them into
the per-layer figures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index]


def _pst_time_counts(fn, args, kwargs, result, ok):
    from pstchain import spectra

    spectrum = _arg(args, kwargs, 0, "spectrum")
    rows = (getattr(spectra, "_MAX_BASE_DIVISOR", 9999) + 1) // 2
    needed = rows
    if ok:
        divisor = round(float(np.min(np.diff(spectrum.values))) * result.t_pst / math.pi)
        needed = (divisor + 1) // 2
    return {"cells": rows * (spectrum.n_sites - 1), "rows_built": rows, "rows_needed": needed}


def _spectral_weights_counts(fn, args, kwargs, result, ok):
    return {"fail": 0 if ok else 1}


def _reconstruct_counts(fn, args, kwargs, result, ok):
    # full-reorthogonalization Lanczos: two passes of two (j+1) x n matvecs
    # per step j < n-1, i.e. sum 8 n (j+1) = 4 n^2 (n-1) flops
    n = _arg(args, kwargs, 0, "spectrum").n_sites
    return {"lanczos_flops": 4 * n * n * (n - 1) if ok else 0}


def _design_chain_counts(fn, args, kwargs, result, ok):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"key": tuple(bound.arguments.items())}


def _eigensystem_check_counts(fn, args, kwargs, result, ok):
    n = int(np.size(args[0].eigenvalues))
    return {"flops": 2 * n**3}


def _fidelity_trace_counts(fn, args, kwargs, result, ok):
    return {"points": int(_arg(args, kwargs, 3, "n_points"))}


def _run_ensemble_counts(fn, args, kwargs, result, ok):
    couplings = _arg(args, kwargs, 0, "couplings")
    model = _arg(args, kwargs, 1, "model")
    n_times = int(np.atleast_1d(_arg(args, kwargs, 2, "times")).size)
    n_workers = kwargs.get("n_workers", args[3] if len(args) > 3 else 1)
    realizations = model.n_realizations if model.epsilon != 0 else 1
    return {
        "realizations": realizations,
        "phase_terms": realizations * n_times * couplings.n_sites,
        "workers": max(1, int(n_workers)),
    }


def _realization_rng_counts(fn, args, kwargs, result, ok):
    model = _arg(args, kwargs, 0, "model")
    r = _arg(args, kwargs, 1, "realization_index")
    return {"key": (int(model.base_seed), int(r))}


def _render_table_counts(fn, args, kwargs, result, ok):
    return {"bytes": len(result.encode()) if ok else 0}


@dataclass(frozen=True)
class Target:
    """One wrapped function: span name, where the original lives, counter."""

    name: str
    home: str  # module holding the original binding
    attr: str  # attribute path inside `home`, e.g. "EigenSystem.__post_init__"
    counts: object = None


TARGETS = (
    Target("spectra.pst_time", "pstchain.spectra", "pst_time", _pst_time_counts),
    Target("spectra.commensurate_adjust", "pstchain.spectra", "commensurate_adjust"),
    Target(
        "inverse_eigen.spectral_weights",
        "pstchain.inverse_eigen",
        "spectral_weights",
        _spectral_weights_counts,
    ),
    Target(
        "inverse_eigen.reconstruct_couplings",
        "pstchain.inverse_eigen",
        "reconstruct_couplings",
        _reconstruct_counts,
    ),
    Target("inverse_eigen.verify_reconstruction", "pstchain.inverse_eigen", "verify_reconstruction"),
    Target("pipeline.design_chain", "pstchain.pipeline", "design_chain", _design_chain_counts),
    Target("dynamics.diagonalize", "pstchain.dynamics", "diagonalize"),
    Target(
        "dynamics.eigensystem_check",
        "pstchain.dynamics",
        "EigenSystem.__post_init__",
        _eigensystem_check_counts,
    ),
    Target("dynamics.fidelity_trace", "pstchain.dynamics", "fidelity_trace", _fidelity_trace_counts),
    Target("dynamics.averaged_fidelity", "pstchain.dynamics", "averaged_fidelity"),
    Target("lapack.eigh_tridiagonal", "scipy.linalg", "eigh_tridiagonal"),
    Target("lapack.eigvalsh_tridiagonal", "scipy.linalg", "eigvalsh_tridiagonal"),
    Target("disorder.run_ensemble", "pstchain.disorder", "run_ensemble", _run_ensemble_counts),
    Target("disorder.perturb_couplings", "pstchain.disorder", "perturb_couplings"),
    Target(
        "disorder.realization_rng",
        "pstchain.disorder",
        "realization_rng",
        _realization_rng_counts,
    ),
    Target("analysis.level_shift_stats", "pstchain.analysis", "level_shift_stats"),
    Target("analysis.window_width", "pstchain.analysis", "window_width"),
    Target("analysis.detect_first_maximum", "pstchain.analysis", "detect_first_maximum"),
    Target("tableio.render_table", "pstchain.tableio", "render_table", _render_table_counts),
    Target("cli.main", "pstchain.cli", "main"),
    Target("cli.build_parser", "pstchain.cli", "build_parser"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    thread: int
    start: float
    end: float = 0.0
    ok: bool = True
    counts: dict = field(default_factory=dict)


def _resolve(target: Target):
    """(owner, attribute, original) of a target, or None when it is gone."""
    try:
        owner = importlib.import_module(target.home)
    except ImportError:
        return None
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Collects spans from patched pstchain entry points."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn):
        tracer = self
        name = target.name
        counts = target.counts

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                # a pool worker: attribute the span to the caller waiting on it
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span = Span(
                next(tracer._ids), name, parent, tracer.op, threading.get_ident(),
                time.perf_counter(),
            )
            stack.append(span.id)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if counts is not None:
                    try:
                        span.counts = counts(fn, args, kwargs, result, span.ok)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        # the entry point changed its signature: count nothing
                        span.counts = {}
                tracer.spans.append(span)

        return functools.update_wrapper(wrapper, fn)

    @contextlib.contextmanager
    def patched(self):
        """Patch every binding of every present target; restore on exit."""
        restore = []
        self.absent = []
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "pstchain" or key.startswith("pstchain."))
        ]
        try:
            for target in self.targets:
                found = _resolve(target)
                if found is None:
                    self.absent.append(target.name)
                    continue
                owner, attr, original = found
                wrapper = self._wrap(target, original)
                bound = 0
                if isinstance(owner, type):
                    restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    bound += 1
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, original))
                            setattr(module, key, wrapper)
                            bound += 1
                if bound == 0:
                    self.absent.append(target.name)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.id] = (s.end - s.start) - covered
    return out


def _realization_busy(spans: list[Span]) -> tuple[float, float]:
    """(realization busy time, workers x wall) summed over run_ensemble spans.

    A realization runs from its perturb_couplings call to the end of the
    averaged_fidelity call that follows it in the same thread.
    """
    by_parent = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            by_parent[s.parent].append(s)
    busy = capacity = 0.0
    for s in spans:
        if s.name != "disorder.run_ensemble":
            continue
        capacity += s.counts.get("workers", 1) * (s.end - s.start)
        open_at = {}
        for c in sorted(by_parent.get(s.id, ()), key=lambda c: c.start):
            if c.name == "disorder.perturb_couplings":
                open_at[c.thread] = c.start
            elif c.name == "dynamics.averaged_fidelity" and c.thread in open_at:
                busy += c.end - open_at.pop(c.thread)
    return busy, capacity


#: Per-layer metrics reported by a traced run: name -> unit.
LAYER_METRICS = {
    "spectra.pst_time.calls": "calls/op",
    "spectra.pst_time.self_s": "s/op",
    "spectra.pst_time.cells": "cells/op",
    "spectra.pst_time.useful_ratio": "1",
    "spectra.commensurate_adjust.self_s": "s/op",
    "inverse_eigen.spectral_weights.self_s": "s/op",
    "inverse_eigen.spectral_weights.fail": "fails/op",
    "inverse_eigen.reconstruct_couplings.self_s": "s/op",
    "inverse_eigen.lanczos_flops": "flops/op",
    "inverse_eigen.verify_reconstruction.self_s": "s/op",
    "pipeline.design_chain.calls": "calls/op",
    "pipeline.design_chain.self_s": "s/op",
    "pipeline.design_chain.unique_ratio": "1",
    "dynamics.diagonalize.calls": "calls/op",
    "dynamics.diagonalize.self_s": "s/op",
    "dynamics.eigensystem_check.self_s": "s/op",
    "dynamics.eigensystem_check.flops": "flops/op",
    "lapack.eigh_tridiagonal.calls": "calls/op",
    "lapack.eigh_tridiagonal.self_s": "s/op",
    "lapack.eigvalsh_tridiagonal.calls": "calls/op",
    "lapack.eigvalsh_tridiagonal.self_s": "s/op",
    "dynamics.fidelity_trace.calls": "calls/op",
    "dynamics.fidelity_trace.self_s": "s/op",
    "dynamics.fidelity_trace.points": "points/op",
    "dynamics.averaged_fidelity.self_s": "s/op",
    "disorder.run_ensemble.self_s": "s/op",
    "disorder.run_ensemble.realizations": "count/op",
    "disorder.phase_terms": "terms/op",
    "disorder.perturb_couplings.self_s": "s/op",
    "disorder.realization_rng.calls": "calls/op",
    "disorder.realization_rng.self_s": "s/op",
    "disorder.realization_rng.unique_ratio": "1",
    "disorder.pool_busy_frac": "1",
    "analysis.level_shift_stats.self_s": "s/op",
    "analysis.window_width.self_s": "s/op",
    "analysis.detect_first_maximum.self_s": "s/op",
    "tableio.render_table.calls": "calls/op",
    "tableio.render_table.self_s": "s/op",
    "tableio.bytes": "bytes/op",
    "cli.main.calls": "calls/op",
    "cli.main.self_s": "s/op",
    "cli.build_parser.calls": "calls/op",
    "cli.build_parser.self_s": "s/op",
}

# exact count metrics: (metric, span name, count key or None for calls)
_COUNT_METRICS = (
    ("spectra.pst_time.calls", "spectra.pst_time", None),
    ("spectra.pst_time.cells", "spectra.pst_time", "cells"),
    ("inverse_eigen.spectral_weights.fail", "inverse_eigen.spectral_weights", "fail"),
    ("inverse_eigen.lanczos_flops", "inverse_eigen.reconstruct_couplings", "lanczos_flops"),
    ("pipeline.design_chain.calls", "pipeline.design_chain", None),
    ("dynamics.diagonalize.calls", "dynamics.diagonalize", None),
    ("dynamics.eigensystem_check.flops", "dynamics.eigensystem_check", "flops"),
    ("lapack.eigh_tridiagonal.calls", "lapack.eigh_tridiagonal", None),
    ("lapack.eigvalsh_tridiagonal.calls", "lapack.eigvalsh_tridiagonal", None),
    ("dynamics.fidelity_trace.calls", "dynamics.fidelity_trace", None),
    ("dynamics.fidelity_trace.points", "dynamics.fidelity_trace", "points"),
    ("disorder.run_ensemble.realizations", "disorder.run_ensemble", "realizations"),
    ("disorder.phase_terms", "disorder.run_ensemble", "phase_terms"),
    ("disorder.realization_rng.calls", "disorder.realization_rng", None),
    ("tableio.render_table.calls", "tableio.render_table", None),
    ("tableio.bytes", "tableio.render_table", "bytes"),
    ("cli.main.calls", "cli.main", None),
    ("cli.build_parser.calls", "cli.build_parser", None),
)

_UNIQUE_METRICS = (
    ("pipeline.design_chain.unique_ratio", "pipeline.design_chain"),
    ("disorder.realization_rng.unique_ratio", "disorder.realization_rng"),
)


def layer_metrics(spans: list[Span], n_ops: int, op_wall_s: float) -> dict[str, float]:
    """Per-op layer figures from the spans of `n_ops` traced ops.

    Counts are averaged with exact rational arithmetic, so they depend only
    on the multiset of ops, never on how many cycles of them ran.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    for metric in LAYER_METRICS:
        if metric.endswith(".self_s"):
            name = metric[: -len(".self_s")]
            out[metric] = sum(selfs[s.id] for s in by_name[name]) / n_ops
    for metric, name, key in _COUNT_METRICS:
        total = sum(1 if key is None else s.counts.get(key, 0) for s in by_name[name])
        out[metric] = float(Fraction(total, n_ops))
    for metric, name in _UNIQUE_METRICS:
        per_op = defaultdict(list)
        for s in by_name[name]:
            per_op[s.op].append(s.counts["key"])
        ratios = [Fraction(len(set(keys)), len(keys)) for keys in per_op.values()]
        out[metric] = float(sum(ratios, Fraction(0)) / len(ratios)) if ratios else 0.0
    built = sum(s.counts.get("rows_built", 0) for s in by_name["spectra.pst_time"])
    needed = sum(s.counts.get("rows_needed", 0) for s in by_name["spectra.pst_time"])
    out["spectra.pst_time.useful_ratio"] = float(Fraction(needed, built)) if built else 0.0
    busy, capacity = _realization_busy(spans)
    out["disorder.pool_busy_frac"] = busy / capacity if capacity else 0.0
    out["trace.coverage_frac"] = sum(selfs.values()) / op_wall_s if op_wall_s else 0.0
    return out


def write_spans(path, spans: list[Span]) -> None:
    """Write spans as CSV: id, parent, op, thread, name, start, end, ok."""
    with open(path, "w") as fh:
        fh.write("id,parent,op,thread,name,start,end,ok\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            fh.write(
                f"{s.id},{parent},{s.op},{s.thread},{s.name},"
                f"{s.start!r},{s.end!r},{int(s.ok)}\n"
            )
