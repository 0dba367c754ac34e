"""Diagnostics relating robustness to spectral and eigenstate structure.

Covers eigenvector site probabilities (localization), perturbed level-shift
statistics, the curvature controlling the read-out window around the transfer
peak, window widths and first-maximum detection (one walk, stepped by the
end-to-end bandwidth sqrt(M2)), and transfer-speed ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderModel, realizations
from .dynamics import (
    PHASE_BLOCK,
    _require_mirrored,
    _transfer_abs,
    averaged_fidelity,
    diagonalize,
)
from .errors import NoEchoError, NoWindowError
from .inverse_eigen import CouplingSet
from .spectra import freeze

#: Default fidelity threshold defining the read-out window.
WINDOW_THRESHOLD = 0.99
#: Detection floor for the first-maximum search, above the F = 1/2 baseline.
FIRST_MAX_FLOOR = 0.55
#: Step h of the read-out walks in units of pi / sqrt(M2), where
#: M2 = sum_k |P_k| omega_k^2 bounds |f_N''| (J_1^2 on a clean mirrored chain),
#: so that sqrt(M2) h = WINDOW_STEP pi.
WINDOW_STEP = 1 / 8


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
        if not np.all(self.std >= 0):
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


def site_probabilities(couplings: CouplingSet) -> np.ndarray:
    """Read-only p[k, i] = a_{k,i}^2 of the Gram-checked eigenvectors; rows and columns sum to 1."""
    p = diagonalize(couplings).eigenvectors ** 2
    p.setflags(write=False)
    return p


def participation_ratio(weights) -> float:
    """(sum_k w_k^2)^{-1}: how many levels a probability column effectively spans."""
    w = np.asarray(weights, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing sum is rejected below
        total = w.sum()
    if not (np.all(w >= 0) and 0 < total < np.inf):  # NaN and inf fail too
        raise ValueError("weights must be finite and non-negative, with a positive sum")
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
    omega, products = transfer
    p = np.abs(products)
    # sum_{k,s} p_k p_s (w_k - w_s)^2 = 2 (<w^2> - <w>^2) under p
    mean = float(p @ omega)
    return 2.0 * max(float(p @ omega**2) - mean**2, 0.0)


def window_width(
    transfer: tuple[np.ndarray, np.ndarray], t_pst: float, threshold: float = WINDOW_THRESHOLD
) -> float:
    """Duration of the contiguous interval around t_pst with F >= threshold.

    Takes (levels, products), exactly mirrored as `dynamics.end_to_end` returns
    them.  F >= threshold exactly where |f_N| >= a_min = sqrt(6 threshold - 2) - 1.
    `_first_fall` solves the first edge met walking out from t_pst in the
    steps h of `_walk`; one that reaches t = 0 or 2 t_pst is truncated there.
    As |f_N''| <= M2, a dip below a_min between two samples that the walk does
    not see is shallower than M2 h^2 / 8 = (WINDOW_STEP pi)^2 / 8.
    """
    a_min = _amplitude_floor(threshold, "threshold")
    if not 0 < t_pst < np.inf:
        raise ValueError("t_pst must be positive and finite")
    _require_mirrored(transfer)
    peak = _transfer_abs(transfer, np.array([t_pst]))[0]
    if peak < a_min:
        raise NoWindowError(f"F({t_pst:g}) = {averaged_fidelity(peak):.6f} is below {threshold}")
    return _window_edge(transfer, t_pst, a_min, 1) - _window_edge(transfer, t_pst, a_min, -1)


def _window_edge(transfer, t_pst: float, a_min: float, direction: int) -> float:
    """Offset from t_pst of the edge met walking in `direction`, within [-t_pst, t_pst]."""
    excess = lambda t: _transfer_abs(transfer, t) - a_min  # noqa: E731
    for times, amp in _walk(transfer, t_pst, direction, t_pst):
        if np.any(amp < a_min):  # a block starts at t_pst or at samples found above a_min
            i = np.argmax(amp < a_min)
            return _first_fall(excess, times[i - 1 : i + 1], t_pst, origin=t_pst)
    return direction * t_pst


def detect_first_maximum(
    transfer: tuple[np.ndarray, np.ndarray], t_end: float, min_fidelity: float = FIRST_MAX_FLOOR
) -> WindowMetrics:
    """Time and fidelity of the first local maximum of F on (0, t_end] above min_fidelity.

    The earliest constructive arrival, only for some chains at t_pst.  Walks
    from t = 0 in the steps h of `_walk`; d|f_N|/dt falls from >= 0 to < 0
    between the two samples around each maximum, the last step's too.  As
    |f_N''| <= M2, one of them is above a_floor - M2 (h / 2)^2 / 2 for a
    maximum above a_floor (|f_N| at min_fidelity); `_first_fall` solves those
    brackets on d|f_N|/dt.  A maximum and minimum closer than h are not seen.
    """
    lowest = _amplitude_floor(min_fidelity, "min_fidelity") - 0.5 * (0.5 * WINDOW_STEP * np.pi) ** 2
    if not 0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    _require_mirrored(transfer)
    slope = lambda t: _transfer_abs(transfer, t, slope=True)  # noqa: E731
    for times, amp in _walk(transfer, 0.0, 1, t_end):
        rate = slope(times)
        falls = (rate[:-1] >= 0) & (rate[1:] < 0) & (np.maximum(amp[:-1], amp[1:]) >= lowest)
        for i in np.flatnonzero(falls):
            t_peak = _first_fall(slope, times[i : i + 2], t_end)
            f_peak = averaged_fidelity(_transfer_abs(transfer, np.array([t_peak]))[0])
            if f_peak > min_fidelity:
                return WindowMetrics(first_max_time=t_peak, first_max_fidelity=f_peak)
    raise NoEchoError(f"no local maximum above {min_fidelity} found in (0, {t_end:g}]")


def _amplitude_floor(fidelity: float, name: str) -> float:
    """|f_N| = sqrt(6 F - 2) - 1 at which F = fidelity; ValueError naming it unless F lies in (0.5, 1)."""
    if not 0.5 < fidelity < 1.0:
        raise ValueError(f"{name} must lie in (0.5, 1)")
    return np.sqrt(6.0 * fidelity - 2.0) - 1.0


def _walk(transfer, start: float, direction: int, span: float):
    """Blocks of start + j h up to span from start in `direction`, with |f_N|; blocks share one sample."""
    levels, products = transfer
    step = direction * WINDOW_STEP * np.pi / np.sqrt(np.abs(products) @ levels**2)  # h; see WINDOW_STEP
    n_steps = int(np.ceil(span / abs(step)))
    for first in range(0, n_steps, PHASE_BLOCK - 1):
        times = start + step * np.arange(first, min(first + PHASE_BLOCK, n_steps + 1))
        np.clip(times, start - span, start + span, out=times)
        yield times, _transfer_abs(transfer, times)


def _first_fall(func, times: np.ndarray, t_ref: float, origin: float = 0.0):
    """Offset from `origin` of the first fall of func on `times` from >= 0 to below 0.

    `times` must hold one, as the walk brackets passed in do.  It is split
    into 64 parts at a time until no wider than 4 u t_ref, no less than the
    spacing of the doubles up to 2 t_ref (so every split narrows a wider
    one), and the fall interpolated linearly within it.
    """
    tol = 2.0 * np.finfo(float).eps * t_ref
    while True:
        values = func(times)
        falls = np.flatnonzero((values[:-1] >= 0) & (values[1:] < 0))
        (t0, t1), (v0, v1) = times[falls[0] : falls[0] + 2], values[falls[0] : falls[0] + 2]
        if abs(t1 - t0) <= tol:
            return float((t0 - origin) + (t1 - t0) * v0 / (v0 - v1))
        times = np.linspace(t0, t1, 65)  # keeps both ends exactly


def speed_ratio(t_pst: float, n_sites: int, j_max: float) -> float:
    """Slowdown gamma = t_pst / (pi N / (4 J_max)) relative to the linear benchmark."""
    if not t_pst > 0:
        raise ValueError("t_pst must be positive")
    return float(t_pst / linear_reference_time(n_sites, j_max))


def linear_reference_time(n_sites: int, j_max: float) -> float:
    """Transfer-time benchmark pi N / (4 J_max) of the linear-spectrum chain."""
    if not (n_sites > 0 and j_max > 0):
        raise ValueError("n_sites and j_max must be positive")
    return float(np.pi * n_sites / (4.0 * j_max))
