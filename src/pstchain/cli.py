"""Command-line pipeline: design chains, simulate transfer, run ensembles.

Each subcommand computes one table and writes it as CSV with a JSON metadata
preamble carrying the full resolved parameter set (including seeds and the
RNG scheme), so any output file can be regenerated bit-identically from its
own header.  Each `*_table` function renders one table from a designed chain
(the spectrum table from a spectrum stage), whose stage supplies the family
part of the header; `reproduce` designs each standard family once and renders
its nine tables with the same functions.

Exit codes: 0 success, 2 configuration error (including an output path that
cannot be written and a grid or echo count too large to allocate), 3 numerical
failure (incommensurate spectrum, unstable reconstruction or underflowing
spectral weights, an eigenvalue solve that does not converge, end-to-end
products failing their checks, no read-out window or no echo).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .analysis import (
    detect_first_maximum,
    level_shift_stats,
    participation_ratio,
    site_probabilities,
    window_curvature,
    window_width,
)
from .disorder import (
    RNG_ALGORITHM_ID,
    DisorderModel,
    echo_decay,
    fidelity_vs_strength,
    run_ensemble,
)
from .dynamics import FidelityTrace, fidelity_trace
from .errors import NumericalError
from .pipeline import STANDARD_FAMILIES, DesignedChain, SpectrumStage, design_chain, design_standard, spectrum_stage
from .spectra import BASE_SEARCH_TOLERANCE, FAMILIES, MAX_SCAN_CANDIDATES, SpectrumSpec
from .tableio import render_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; normalize other codes too
        return int(exc.code) if exc.code else EXIT_OK
    try:
        args.handler(args)
    except NumericalError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, MemoryError) as exc:  # MemoryError: a grid or echo count too large to hold
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # handlers touch the file system only to write output
        print(f"configuration error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pstchain",
        description="Design spin-chain channels for perfect state transfer and "
        "quantify their robustness under static coupling disorder.",
    )
    parser.add_argument("--version", action="version", version=f"pstchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="generate a PST-compatible energy spectrum")
    _add_family_args(sp)
    sp.add_argument(
        "--no-adjust",
        action="store_true",
        help="fail instead of readjusting an incommensurate spectrum",
    )
    _add_output_arg(sp)
    sp.set_defaults(handler=cmd_spectrum)

    ch = sub.add_parser("chain", help="reconstruct the coupling pattern of a spectrum")
    _add_family_args(ch)
    ch.add_argument(
        "--no-normalize",
        action="store_true",
        help="keep raw couplings instead of rescaling to max J = 1",
    )
    _add_output_arg(ch)
    ch.set_defaults(handler=cmd_chain)

    sim = sub.add_parser("simulate", help="unperturbed fidelity trace over time")
    _add_family_args(sim)
    sim.add_argument("--periods", type=float, default=2.0, help="trace length in units of t_pst (default 2)")
    sim.add_argument("--points-per-period", type=int, default=2000, help="grid points per t_pst (default 2000)")
    _add_output_arg(sim)
    sim.set_defaults(handler=cmd_simulate)

    ens = sub.add_parser("ensemble", help="disorder-averaged fidelity statistics")
    _add_family_args(ens)
    ens.add_argument("--eps", type=float, default=0.01, help="relative disorder strength (default 0.01)")
    ens.add_argument("--nav", type=int, default=100, help="number of realizations (default 100)")
    ens.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    ens_mode = ens.add_mutually_exclusive_group()
    ens_mode.add_argument("--echoes", type=int, default=None, help="evaluate at the first K transfer echoes instead of a time grid")
    ens_mode.add_argument("--sweep", type=str, default=None, help="comma-separated disorder strengths; mean fidelity at t_pst per strength")
    ens.add_argument("--periods", type=float, default=2.0, help="time-grid length in units of t_pst (trace mode)")
    ens.add_argument("--points-per-period", type=int, default=200, help="grid points per t_pst (trace mode, default 200)")
    _add_output_arg(ens)
    ens.set_defaults(handler=cmd_ensemble)

    ana = sub.add_parser("analyze", help="localization, level-shift and window diagnostics")
    _add_family_args(ana)
    mode = ana.add_mutually_exclusive_group(required=True)
    mode.add_argument("--localization", action="store_true", help="eigenvector probability map")
    mode.add_argument("--level-shifts", action="store_true", help="per-level disorder shift statistics")
    mode.add_argument("--window", action="store_true", help="read-out window metrics")
    ana.add_argument("--eps", type=float, default=0.01, help="disorder strength (level-shift mode)")
    ana.add_argument("--nav", type=int, default=1000, help="realizations (level-shift mode, default 1000)")
    ana.add_argument("--seed", type=int, default=0, help="base seed (level-shift mode)")
    ana.add_argument("--threshold", type=float, default=0.99, help="window fidelity threshold (window mode, default 0.99)")
    ana.add_argument(
        "--points-per-period",
        type=int,
        default=2000,
        help="points per t_pst of the coarse first-maximum grid on [0, 1.05 t_pst] (window mode, "
        "default 2000); the width's fine trace is fixed at 28001 points on [0.93, 1.07] t_pst, "
        "extended in blocks of 14000 points",
    )
    _add_output_arg(ana)
    ana.set_defaults(handler=cmd_analyze)

    rep = sub.add_parser("reproduce", help="write the full data-product set for the five standard families")
    rep.add_argument("--outdir", type=str, default="pstchain_out", help="output directory (default ./pstchain_out)")
    rep.add_argument("--n", type=int, default=31, help="chain length (default 31)")
    rep.add_argument("--nav", type=int, default=100, help="realizations per ensemble (default 100)")
    rep.add_argument("--seed", type=int, default=0, help="base seed")
    rep.set_defaults(handler=cmd_reproduce)

    return parser


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=FAMILIES, required=True, help="spectrum family")
    p.add_argument("--alpha", type=float, required=True, help="shape exponent (> 0)")
    p.add_argument("--n", type=int, required=True, help="number of sites (odd, >= 3)")
    p.add_argument("--amplitude", type=float, default=1.0, help="energy scale before normalization (default 1)")
    p.add_argument(
        "--base-search-tolerance",
        type=float,
        default=BASE_SEARCH_TOLERANCE,
        help="scan resolution of the commensuration search (default 1e-4); a value "
        f"asking for more than MAX_SCAN_CANDIDATES = {MAX_SCAN_CANDIDATES} candidate "
        f"bases (below about {(2 / 3) / MAX_SCAN_CANDIDATES:.3g}) exits 2",
    )


def _add_output_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, default=None, help="output CSV path (default: stdout)")


def _write(path, text: str) -> None:
    """Write a rendered table to `path`, or to stdout when it is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _metadata(command: str, stage: SpectrumStage, params: dict, results: dict) -> dict:
    """Header of one table; the family parameters are read from its spectrum stage."""
    spec = stage.spec
    params = {
        "family": spec.family,
        "alpha": spec.exponent,
        "n": spec.n_sites,
        "amplitude": spec.amplitude,
        "base_search_tolerance": stage.base_search_tolerance,
    } | params
    meta = {"tool": "pstchain", "version": __version__, "command": command}
    return meta | {"params": params, "results": results}


def _design(args, normalize: bool = True) -> DesignedChain:
    return design_chain(args.n, args.family, args.alpha, args.amplitude, normalize, args.base_search_tolerance)


def _disorder_params(model: DisorderModel) -> dict:
    return {
        "eps": model.epsilon,
        "nav": model.n_realizations,
        "base_seed": model.base_seed,
        "rng_algorithm_id": RNG_ALGORITHM_ID,
    }


def _chain_results(chain: DesignedChain) -> dict:
    return {"t_pst": chain.t_pst, "gamma": chain.gamma}


def _grid_points(periods: float, points_per_period: int) -> int:
    if not 0 < periods < np.inf or points_per_period < 2:
        raise ValueError("periods must be positive and points-per-period >= 2")
    # an exact int/float comparison; converting such an int would raise OverflowError
    if points_per_period > sys.float_info.max:
        raise ValueError("points-per-period is too large to hold as a grid")
    points = periods * points_per_period
    if not points < np.inf:
        raise ValueError("periods * points-per-period is too large to hold as a grid")
    if round(points) < 1:
        raise ValueError("need at least 2 grid points")
    return round(points) + 1


def spectrum_table(stage: SpectrumStage) -> str:
    results = {
        "t_pst": stage.timing.t_pst,
        "odd_multipliers": stage.timing.odd_multipliers,
        "max_adjustment_rel": stage.max_adjustment,
    }
    energy = stage.spectrum.values
    meta = _metadata("spectrum", stage, {"no_adjust": stage.no_adjust}, results)
    return render_table(meta, {"level_index": np.arange(1, energy.size + 1), "energy": energy})


def chain_table(chain: DesignedChain) -> str:
    j = chain.couplings.couplings
    j_max = chain.couplings.j_max
    results = {
        "t_pst": chain.t_pst,
        "gamma": chain.gamma,
        "j_max": j_max,
        "residual": chain.residual,
        "max_adjustment_rel": chain.stage.max_adjustment,
    }
    return render_table(
        _metadata("chain", chain.stage, {"normalize": chain.normalize}, results),
        {
            "bond_index": np.arange(1, j.size + 1),
            "coupling": j,
            "coupling_over_jmax": j / j_max,
            "residual": np.full(j.size, chain.residual),
        },
    )


def simulate_table(chain: DesignedChain, periods: float, points_per_period: int) -> str:
    n_points = _grid_points(periods, points_per_period)
    trace = fidelity_trace(chain.end_to_end, 0.0, periods * chain.t_pst, n_points)
    params = {"periods": periods, "points_per_period": points_per_period}
    return render_table(
        _metadata("simulate", chain.stage, params, _chain_results(chain)),
        {
            "time": trace.times,
            "time_over_tpst": trace.times / chain.t_pst,
            "amplitude_abs": trace.amplitude_abs,
            "fidelity": trace.fidelity,
        },
    )


def ensemble_trace_table(
    chain: DesignedChain, model: DisorderModel, periods: float, points_per_period: int
) -> str:
    times = np.linspace(0.0, periods * chain.t_pst, _grid_points(periods, points_per_period))
    res = run_ensemble(chain.couplings, model, times)
    params = _disorder_params(model) | {"periods": periods, "points_per_period": points_per_period}
    return render_table(
        _metadata("ensemble", chain.stage, params, _chain_results(chain)),
        {
            "time": res.times,
            "time_over_tpst": res.times / chain.t_pst,
            "mean_fidelity": res.mean_fidelity,
            "std_error": res.std_error,
        },
    )


def echoes_table(chain: DesignedChain, model: DisorderModel, echoes: int) -> str:
    res = echo_decay(chain.couplings, model, echoes)
    params = _disorder_params(model) | {"echoes": echoes}
    return render_table(
        _metadata("ensemble", chain.stage, params, _chain_results(chain)),
        {
            "echo_index": np.arange(1, res.times.size + 1),
            "time": res.times,
            "mean_fidelity": res.mean_fidelity,
            "std_error": res.std_error,
        },
    )


def sweep_table(chain: DesignedChain, model: DisorderModel, strengths: list[float]) -> str:
    """Mean fidelity at t_pst per strength; model.epsilon is only recorded."""
    if not strengths:
        raise ValueError("--sweep needs at least one strength")
    eps, mean, std_error = fidelity_vs_strength(chain.couplings, strengths, model.n_realizations, model.base_seed).T
    params = _disorder_params(model) | {"sweep": strengths}
    return render_table(
        _metadata("ensemble", chain.stage, params, _chain_results(chain)),
        {"epsilon": eps, "mean_fidelity": mean, "std_error": std_error},
    )


def localization_table(chain: DesignedChain) -> str:
    pmap = site_probabilities(chain.eigensystem)
    results = {
        "t_pst": chain.t_pst,
        "participation_ratio_site1": participation_ratio(pmap.p[:, 0]),
    }
    index = np.arange(1, chain.n_sites + 1)
    return render_table(
        _metadata("analyze-localization", chain.stage, {}, results),
        {
            "level_index": np.repeat(index, index.size),
            "site_index": np.tile(index, index.size),
            "probability": pmap.p.ravel(),
        },
    )


def level_shifts_table(chain: DesignedChain, model: DisorderModel) -> str:
    stats = level_shift_stats(chain.couplings, model)
    results = {"normalization": stats.normalization, "t_pst": chain.t_pst}
    return render_table(
        _metadata("analyze-level-shifts", chain.stage, _disorder_params(model), results),
        {
            "level_index": np.arange(1, chain.n_sites + 1),
            "energy": stats.omega_unperturbed,
            "std_shift": stats.std,
            "std_shift_normalized": stats.normalized_std,
            "mean_shift": stats.mean_shift,
            "mean_shift_normalized": stats.normalized_mean_shift,
        },
    )


def window_table(chain: DesignedChain, threshold: float, points_per_period: int) -> str:
    # rejects what the other traces reject, and a coarse grid 1.05 * points_per_period
    # past the float range
    _grid_points(1.05, points_per_period)
    transfer = chain.end_to_end
    # coarse trace for the first maximum, fine trace for the width
    coarse = fidelity_trace(transfer, 0.0, 1.05 * chain.t_pst, int(1.05 * points_per_period) + 1)
    first = detect_first_maximum(coarse)
    width = window_width(_window_trace(transfer, chain.t_pst, threshold), threshold)
    params = {"threshold": threshold, "points_per_period": points_per_period}
    return render_table(
        _metadata("analyze-window", chain.stage, params, _chain_results(chain)),
        {
            "t_pst": [chain.t_pst],
            "gamma": [chain.gamma],
            "curvature": [window_curvature(transfer)],
            "width": [width],
            "first_max_time": [first.first_max_time],
            "first_max_fidelity": [first.first_max_fidelity],
        },
    )


def _window_trace(transfer: tuple[np.ndarray, np.ndarray], t_pst: float, threshold: float) -> FidelityTrace:
    """Fine trace around t_pst that holds the whole region with F >= threshold.

    It starts on [0.93, 1.07] t_pst, which holds the widest 0.99-window among
    the standard families.  While the region reaches an end, another 0.07 t_pst
    at the same spacing is added on that side, up to t = 0 and 2 t_pst.
    """
    block = 0.07 * t_pst
    step = block / 14000
    parts = [fidelity_trace(transfer, 0.93 * t_pst, 1.07 * t_pst, 28001)]
    while True:
        trace = FidelityTrace(*(
            np.concatenate([getattr(part, name) for part in parts])
            for name in ("times", "amplitude_abs", "fidelity")
        ))
        if threshold <= 0.5:  # F >= 1/2 everywhere, so the region has no edge
            return trace
        above = trace.fidelity >= threshold
        peak = int(np.argmax(trace.fidelity))
        start, end = trace.times[0], trace.times[-1]
        if start > 0 and above[: peak + 1].all():
            parts.insert(0, fidelity_trace(transfer, start - block, start - step, 14000))
        elif end < 2 * t_pst and above[peak:].all():
            parts.append(fidelity_trace(transfer, end + step, end + block, 14000))
        else:
            return trace


def cmd_spectrum(args) -> None:
    spec = SpectrumSpec(args.n, args.family, args.alpha, args.amplitude)
    _write(args.out, spectrum_table(spectrum_stage(spec, args.base_search_tolerance, args.no_adjust)))


def cmd_chain(args) -> None:
    _write(args.out, chain_table(_design(args, normalize=not args.no_normalize)))


def cmd_simulate(args) -> None:
    _write(args.out, simulate_table(_design(args), args.periods, args.points_per_period))


def cmd_ensemble(args) -> None:
    model = DisorderModel(epsilon=args.eps, n_realizations=args.nav, base_seed=args.seed)
    chain = _design(args)
    if args.sweep is not None:
        strengths = [float(tok) for tok in args.sweep.split(",") if tok.strip()]
        text = sweep_table(chain, model, strengths)
    elif args.echoes is not None:
        text = echoes_table(chain, model, args.echoes)
    else:
        text = ensemble_trace_table(chain, model, args.periods, args.points_per_period)
    _write(args.out, text)


def cmd_analyze(args) -> None:
    chain = _design(args)
    if args.localization:
        text = localization_table(chain)
    elif args.level_shifts:
        model = DisorderModel(epsilon=args.eps, n_realizations=args.nav, base_seed=args.seed)
        text = level_shifts_table(chain, model)
    else:
        text = window_table(chain, args.threshold, args.points_per_period)
    _write(args.out, text)


def cmd_reproduce(args) -> None:
    # every input is checked and every family designed before anything is written
    model = DisorderModel(epsilon=0.01, n_realizations=args.nav, base_seed=args.seed)
    chains = {name: design_standard(name, args.n) for name in STANDARD_FAMILIES}
    os.makedirs(args.outdir, exist_ok=True)
    sweep = [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    written = 0
    for name in STANDARD_FAMILIES:
        chain = chains.pop(name)  # released with its cached eigensystem once its tables are written
        products = {
            "spectrum": spectrum_table(chain.stage),
            "chain": chain_table(chain),
            "trace": simulate_table(chain, periods=2.0, points_per_period=2000),
            "ensemble_trace": ensemble_trace_table(chain, model, periods=2.0, points_per_period=200),
            "echoes": echoes_table(chain, model, echoes=9),
            "strength_sweep": sweep_table(chain, model, sweep),
            "localization": localization_table(chain),
            "level_shifts": level_shifts_table(chain, model),
            "window": window_table(chain, threshold=0.99, points_per_period=2000),
        }
        for stage, text in products.items():
            _write(os.path.join(args.outdir, f"{stage}_{name}.csv"), text)
            written += 1
    print(f"wrote {written} files to {args.outdir}")


if __name__ == "__main__":
    sys.exit(main())
