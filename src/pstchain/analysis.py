"""Diagnostics relating robustness to spectral and eigenstate structure.

Covers eigenvector site probabilities (localization), perturbed level-shift
statistics, the curvature controlling the read-out window around the transfer
peak, window widths, first-maximum detection, and transfer-speed ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderModel, realizations
from .dynamics import (
    PHASE_BLOCK,
    EigenSystem,
    FidelityTrace,
    _require_mirrored,
    _transfer_abs,
    averaged_fidelity,
)
from .errors import NoEchoError, NoWindowError
from .inverse_eigen import CouplingSet
from .spectra import freeze

#: Default fidelity threshold defining the read-out window.
WINDOW_THRESHOLD = 0.99
#: Detection floor for the first-maximum search, above the F = 1/2 baseline.
FIRST_MAX_FLOOR = 0.55
#: Step of the window-edge walk in units of pi / sigma_max.  At t_pst every
#: phase aligns, so |f_N(t_pst +- d)| = sum_k |P_k| cos(omega_k d) decreases
#: strictly on [0, pi / sigma_max]; wider windows are found by walking on.
WINDOW_STEP = 1 / 8


@dataclass(frozen=True)
class LocalizationMap:
    """Eigenvector probabilities p[k, i] = a_{k,i}^2; both marginals sum to 1."""

    p: np.ndarray

    def __post_init__(self):
        freeze(self, "p")
        p = self.p
        n = p.shape[0]
        if p.ndim != 2 or p.shape != (n, n):
            raise ValueError("probability map must be square")
        if np.any(p < 0) or np.any(p > 1 + 1e-10):
            raise ValueError("probabilities must lie in [0, 1]")
        if np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-10:
            raise ValueError("columns (sites) must sum to 1")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-10:
            raise ValueError("rows (levels) must sum to 1")


@dataclass(frozen=True)
class LevelShiftStats:
    """Per-level spread of the perturbed eigenvalues around the clean ones.

    `std` is the root-mean-square deviation from the unperturbed level;
    `mean_shift` is also kept so that the onset of asymmetric level motion at
    strong disorder can be located.  `normalization` is epsilon * omega_max,
    the scale on which the spreads collapse for weak disorder.
    """

    std: np.ndarray
    mean_shift: np.ndarray
    normalization: float
    omega_unperturbed: np.ndarray

    def __post_init__(self):
        freeze(self, "std", "mean_shift", "omega_unperturbed")
        if not (self.std.shape == self.mean_shift.shape == self.omega_unperturbed.shape):
            raise ValueError("per-level arrays must be aligned")
        if np.any(self.std < 0):
            raise ValueError("standard deviations must be non-negative")

    @property
    def normalized_std(self) -> np.ndarray:
        if self.normalization == 0.0:
            return np.zeros_like(self.std)
        return self.std / self.normalization

    @property
    def normalized_mean_shift(self) -> np.ndarray:
        if self.normalization == 0.0:
            return np.zeros_like(self.mean_shift)
        return self.mean_shift / self.normalization


@dataclass(frozen=True)
class WindowMetrics:
    """Time and fidelity of the first local fidelity maximum."""

    first_max_time: float
    first_max_fidelity: float


def site_probabilities(eig: EigenSystem) -> LocalizationMap:
    """Squared eigenvector components of a chain eigensystem."""
    return LocalizationMap(eig.eigenvectors**2)


def participation_ratio(weights) -> float:
    """(sum_k w_k^2)^{-1}: how many levels a probability column effectively spans."""
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have positive sum")
    w = w / total
    return float(1.0 / np.sum(w**2))


def level_shift_stats(couplings: CouplingSet, model: DisorderModel) -> LevelShiftStats:
    """Spread of each sorted eigenvalue across the disorder ensemble."""
    omega0 = couplings.eigenvalues()
    deviations = np.array([
        chain.eigenvalues() - omega0 for chain in realizations(couplings, model)
    ])
    omega_max = float(np.max(np.abs(omega0)))
    return LevelShiftStats(
        std=np.sqrt(np.mean(deviations**2, axis=0)),
        mean_shift=deviations.mean(axis=0),
        normalization=model.epsilon * omega_max,
        omega_unperturbed=omega0,
    )


def window_curvature(transfer: tuple[np.ndarray, np.ndarray]) -> float:
    """Curvature of |f_N|^2 at the transfer peak of a mirror-symmetric chain.

    Takes (levels, products) as `dynamics.end_to_end` returns them.
    kappa = sum_{k,s} p_k p_s (omega_k - omega_s)^2 with p the first-site
    probabilities, which mirror symmetry makes p_k = |a_{k,1} a_{k,N}|, so
    that |f_N(t_pst + dt)|^2 ~ 1 - (dt^2/2) kappa.  The expansion is
    asymptotic: it holds in the regime dt * sqrt(kappa) << 1, and the next
    term is + mu4 dt^4 / 24 with mu4 = sum_{k,s} p_k p_s (omega_k - omega_s)^4.
    """
    levels, products = transfer
    return _pair_curvature(levels, np.abs(products))


def _pair_curvature(omega: np.ndarray, p: np.ndarray) -> float:
    # sum_{k,s} p_k p_s (w_k - w_s)^2 = 2 (<w^2> - <w>^2) under p
    mean = float(p @ omega)
    second = float(p @ omega**2)
    return 2.0 * max(second - mean**2, 0.0)


def window_width(
    transfer: tuple[np.ndarray, np.ndarray], t_pst: float, threshold: float = WINDOW_THRESHOLD
) -> float:
    """Duration of the contiguous interval around t_pst with F >= threshold.

    Takes (levels, products), exactly mirrored as `dynamics.end_to_end`
    returns them.  F >= threshold exactly where |f_N| >= a_min =
    sqrt(6 threshold - 2) - 1.  Walking out from t_pst in steps
    h = WINDOW_STEP pi / sigma_max, the first sample below a_min and the one
    before it bracket an edge.  The bracket is split into 64 parts at a time
    until it is no wider than 4 u t_pst, about the spacing of the doubles
    near t_pst, and the edge is interpolated linearly within it.  An edge
    that reaches t = 0 or 2 t_pst is truncated there.  A dip below a_min
    that starts and ends within one step h is not seen.
    """
    if not 0.5 < threshold < 1.0:
        raise ValueError("threshold must lie in (0.5, 1)")
    if not t_pst > 0:
        raise ValueError("t_pst must be positive")
    _require_mirrored(transfer)
    a_min = np.sqrt(6.0 * threshold - 2.0) - 1.0
    peak = _transfer_abs(transfer, np.array([t_pst]))[0]
    if peak < a_min:
        raise NoWindowError(f"F({t_pst:g}) = {averaged_fidelity(peak):.6f} is below {threshold}")
    step = WINDOW_STEP * np.pi / transfer[0][-1]
    return _window_edge(transfer, t_pst, a_min, step) - _window_edge(transfer, t_pst, a_min, -step)


def _window_edge(transfer, t_pst: float, a_min: float, step: float) -> float:
    """Offset from t_pst of the edge met walking by `step`, within [-t_pst, t_pst]."""
    # 4 u t_pst is no less than the spacing of the doubles up to 2 t_pst, so a
    # wider bracket holds a double between its ends and every split narrows it
    tol = 2.0 * np.finfo(float).eps * t_pst
    n_steps = int(np.ceil(t_pst / abs(step)))
    for first in range(0, n_steps, PHASE_BLOCK):
        # blocks overlap by one sample, so a block starts at t_pst or at a sample
        # found above a_min, and its first sample below a_min has one before it
        times = t_pst + step * np.arange(first, min(first + PHASE_BLOCK, n_steps) + 1)
        np.clip(times, 0.0, 2.0 * t_pst, out=times)
        excess = _transfer_abs(transfer, times) - a_min
        while np.any(excess < 0):
            i = np.argmax(excess < 0)  # the first sample below a_min
            t0, t1, e0, e1 = times[i - 1], times[i], excess[i - 1], excess[i]
            if abs(t1 - t0) <= tol:
                return float((t0 - t_pst) + (t1 - t0) * e0 / (e0 - e1))
            times = np.linspace(t0, t1, 65)  # keeps both ends exactly
            excess = _transfer_abs(transfer, times) - a_min
    return -t_pst if step < 0 else t_pst


def detect_first_maximum(
    trace: FidelityTrace, min_fidelity: float = FIRST_MAX_FLOOR
) -> WindowMetrics:
    """Time of the first local fidelity maximum above the detection floor.

    Uses a 3-point stencil (suppresses grid-level wiggles around the F = 1/2
    baseline) and refines the peak parabolically.  This is the earliest
    constructive-interference arrival; only for some coupling patterns does
    it coincide with the perfect-transfer time.
    """
    fid = trace.fidelity
    times = trace.times
    for i in range(1, fid.size - 1):
        if fid[i] <= min_fidelity:
            continue
        if fid[i - 1] < fid[i] and fid[i + 1] <= fid[i]:
            t_peak, f_peak = _refine_peak(times, fid, i)
            return WindowMetrics(first_max_time=t_peak, first_max_fidelity=f_peak)
    raise NoEchoError(
        f"no local maximum above {min_fidelity} found in [{times[0]:g}, {times[-1]:g}]"
    )


def _refine_peak(times: np.ndarray, fid: np.ndarray, i: int) -> tuple[float, float]:
    t0, t1, t2 = times[i - 1 : i + 2]
    f0, f1, f2 = fid[i - 1 : i + 2]
    denom = f0 - 2.0 * f1 + f2
    if denom >= 0:  # flat or non-concave sample triple; keep the grid point
        return float(t1), float(f1)
    shift = 0.5 * (f0 - f2) / denom
    shift = float(np.clip(shift, -1.0, 1.0))
    dt = t1 - t0
    t_peak = t1 + shift * dt
    f_peak = f1 - 0.25 * (f0 - f2) * shift
    return float(t_peak), float(min(f_peak, 1.0))


def speed_ratio(t_pst: float, n_sites: int, j_max: float) -> float:
    """Slowdown gamma = t_pst / (pi N / (4 J_max)) relative to the linear benchmark."""
    if t_pst <= 0 or n_sites <= 0 or j_max <= 0:
        raise ValueError("t_pst, n_sites and j_max must be positive")
    return float(t_pst / linear_reference_time(n_sites, j_max))


def linear_reference_time(n_sites: int, j_max: float) -> float:
    """Transfer-time benchmark pi N / (4 J_max) of the linear-spectrum chain."""
    if n_sites <= 0 or j_max <= 0:
        raise ValueError("n_sites and j_max must be positive")
    return float(np.pi * n_sites / (4.0 * j_max))
