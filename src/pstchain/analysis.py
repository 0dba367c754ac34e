"""Diagnostics relating robustness to spectral and eigenstate structure.

Covers eigenvector site probabilities (localization), perturbed level-shift
statistics, the curvature controlling the read-out window around the transfer
peak, window widths, first-maximum detection, and transfer-speed ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderModel, realizations
from .dynamics import EigenSystem, FidelityTrace
from .errors import NoEchoError, NoWindowError
from .inverse_eigen import CouplingSet
from .spectra import freeze

#: Default fidelity threshold defining the read-out window.
WINDOW_THRESHOLD = 0.99
#: Detection floor for the first-maximum search, above the F = 1/2 baseline.
FIRST_MAX_FLOOR = 0.55


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


def window_width(trace: FidelityTrace, threshold: float = WINDOW_THRESHOLD) -> float:
    """Duration of the contiguous interval around the peak with F >= threshold.

    Crossing times are linearly interpolated between grid points; if the
    region extends to an end of the trace it is truncated there.
    """
    if not 0.5 < threshold < 1.0:
        raise ValueError("threshold must lie in (0.5, 1)")
    fid = trace.fidelity
    times = trace.times
    peak = int(np.argmax(fid))
    if fid[peak] < threshold:
        raise NoWindowError(
            f"peak fidelity {fid[peak]:.6f} never reaches threshold {threshold}"
        )
    left = peak
    while left > 0 and fid[left - 1] >= threshold:
        left -= 1
    if left == 0:
        t_left = times[0]
    else:
        t_left = _cross_time(times[left - 1], times[left], fid[left - 1], fid[left], threshold)
    right = peak
    while right < fid.size - 1 and fid[right + 1] >= threshold:
        right += 1
    if right == fid.size - 1:
        t_right = times[-1]
    else:
        t_right = _cross_time(
            times[right], times[right + 1], fid[right], fid[right + 1], threshold
        )
    return float(t_right - t_left)


def _cross_time(t0: float, t1: float, f0: float, f1: float, threshold: float) -> float:
    return t0 + (t1 - t0) * (threshold - f0) / (f1 - f0)


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
