"""Energy spectra compatible with perfect state transfer (PST).

A mirror-symmetric chain supports PST exactly when all consecutive eigenvalue
gaps are odd multiples of a common base pi/t_pst.  This module generates the
two parametrized spectrum families used throughout the package, snaps
almost-commensurate spectra onto an exact odd-multiple grid, and extracts the
transfer time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapsError, NotCommensurateError

CENTER = "center"
BOUNDARY = "boundary"
FAMILIES = (CENTER, BOUNDARY)

#: Relative tolerance for deciding that a gap ratio is an odd integer.
GAP_ODDNESS_RTOL = 1e-9
#: Scan resolution (relative to the smallest gap) of the readjustment search.
BASE_SEARCH_TOLERANCE = 1e-4
# Largest odd divisor of the smallest gap tried before giving up in pst_time.
_MAX_BASE_DIVISOR = 9999
# Candidate rows per block of the pst_time and commensurate_adjust scans, which
# bounds their scratch memory at _SCAN_BLOCK x (N - 1) per table.
_SCAN_BLOCK = 64
#: Most candidate bases the readjustment scan takes; a base_search_tolerance
#: asking for more is a configuration error.
MAX_SCAN_CANDIDATES = 4_000_000


def freeze(obj, *names: str, dtype=float) -> None:
    """Replace each named field of a frozen dataclass with a read-only copy."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class SpectrumSpec:
    """Parameters selecting one member of the spectrum families.

    The `center` family anchors the power law at the middle of the spectrum,
    sgn(x)|x|**exponent; the `boundary` family anchors it at the spectrum
    edges.  `amplitude` sets the overall energy scale before any later
    normalization of the coupling pattern.
    """

    n_sites: int
    family: str
    exponent: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.n_sites < 3 or self.n_sites % 2 == 0:
            raise ValueError(
                f"n_sites must be an odd integer >= 3, got {self.n_sites}"
            )
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not self.exponent > 0:
            raise ValueError(f"exponent must be positive, got {self.exponent}")
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")


@dataclass(frozen=True)
class Spectrum:
    """Strictly increasing, antisymmetric set of chain eigenfrequencies."""

    values: np.ndarray

    def __post_init__(self):
        freeze(self, "values")
        vals = self.values
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("spectrum must be a 1-D array with at least 2 values")
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum values must be finite")
        if not np.all(np.diff(vals) > 0):
            raise ValueError("spectrum values must be strictly increasing")
        scale = float(np.max(np.abs(vals)))
        if np.max(np.abs(vals + vals[::-1])) > 1e-12 * scale:
            raise ValueError("spectrum must be antisymmetric about zero")
        if vals.size % 2 == 1 and vals[vals.size // 2] != 0.0:
            raise ValueError("odd-length spectrum must have an exact zero center value")

    @property
    def n_sites(self) -> int:
        return self.values.size

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.values)

    @property
    def omega_max(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True)
class PstTiming:
    """First transfer time together with the odd gap multipliers.

    Every consecutive gap equals odd_multipliers[k] * pi / t_pst, and the
    multipliers carry no common structure that would allow a larger base
    (their gcd is 1, so t_pst is the first PST time).
    """

    t_pst: float
    odd_multipliers: np.ndarray

    def __post_init__(self):
        freeze(self, "odd_multipliers", dtype=int)
        mult = self.odd_multipliers
        if not self.t_pst > 0:
            raise ValueError("t_pst must be positive")
        if mult.ndim != 1 or np.any(mult <= 0) or np.any(mult % 2 == 0):
            raise ValueError("multipliers must be positive odd integers")


def generate_spectrum(spec: SpectrumSpec) -> Spectrum:
    """Evaluate the requested spectrum family.

    With c = (N+1)/2 the center index (1-based) and x = k - c:
      center:    omega = A * sgn(x) * |x|**alpha
      boundary:  omega = A * sgn(x) * (c**alpha - (c - |x|)**alpha)
    Both are antisymmetric by construction; for integer alpha the gaps are
    already odd integer multiples of A.  Finite levels that round onto each
    other (the boundary family at large alpha) raise DegenerateGapsError;
    levels that overflow are left to Spectrum, which rejects them.
    """
    n = spec.n_sites
    half = (n - 1) // 2
    x = np.arange(1, half + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # Spectrum rejects inf and nan
        if spec.family == CENTER:
            upper = spec.amplitude * x ** spec.exponent
        else:
            anchor = np.float64(n + 1) / 2  # a numpy scalar overflows to inf
            upper = spec.amplitude * (anchor ** spec.exponent - (anchor - x) ** spec.exponent)
    values = np.concatenate([-upper[::-1], [0.0], upper])
    if np.all(np.isfinite(values)) and not np.all(np.diff(values) > 0):
        raise DegenerateGapsError(
            f"{spec.family} spectrum with alpha {spec.exponent:g} and {n} sites has "
            "levels that coincide in double precision"
        )
    return Spectrum(values)


def pst_time(spectrum: Spectrum) -> PstTiming:
    """Find the largest base making every gap an odd multiple of it.

    Any admissible base divides the smallest gap by an odd integer, so the
    search enumerates odd divisors of the smallest gap in increasing order
    (decreasing base) and returns the first one for which every gap ratio r is
    an odd integer within GAP_ODDNESS_RTOL * r.  Only divisors whose window
    is below 1/2 at the largest gap, and so at every gap, are tried: a wider
    window would hold a real number at distance 1 from its nearest odd
    integer, so any ratio would pass.  Transfer then recurs at all odd
    multiples of the returned t_pst.

    The divisors are tested in blocks of _SCAN_BLOCK, and the scan stops at
    the first block that holds an admissible divisor, so a commensurate
    spectrum with a small divisor never builds the rest of the table.
    """
    gaps = spectrum.gaps
    g_min = float(gaps.min())
    divisors = np.arange(1, _MAX_BASE_DIVISOR + 1, 2, dtype=float)
    # the largest gap's ratio, as the scan computes it; below g_min ~ 1e-304
    # large divisors overflow it to inf, which drops them too
    with np.errstate(over="ignore"):
        divisors = divisors[GAP_ODDNESS_RTOL * (gaps.max() * (divisors / g_min)) < 0.5]
    for start in range(0, divisors.size, _SCAN_BLOCK):
        block = divisors[start:start + _SCAN_BLOCK]
        ratios = gaps[None, :] * (block[:, None] / g_min)
        nearest_odd = 2.0 * np.floor(ratios / 2.0) + 1.0
        admissible = np.abs(ratios - nearest_odd) <= GAP_ODDNESS_RTOL * ratios
        rows = np.nonzero(admissible.all(axis=1))[0]
        if rows.size:
            best = int(rows[0])
            return PstTiming(
                t_pst=float(np.pi / (g_min / block[best])),
                odd_multipliers=nearest_odd[best].astype(int),
            )
    raise NotCommensurateError(
        "gap ratios are not ratios of odd integers within tolerance "
        f"{GAP_ODDNESS_RTOL:g}; the spectrum does not support PST"
    )


def commensurate_adjust(
    spectrum: Spectrum,
    base_search_tolerance: float = BASE_SEARCH_TOLERANCE,
) -> tuple[Spectrum, PstTiming]:
    """Minimally readjust an odd-length spectrum so that it satisfies the PST condition.

    If the input is already commensurate within the oddness tolerance, its
    gaps are merely snapped to exact odd multiples of the detected base,
    whatever the ratio of its largest to its smallest gap.  Otherwise a
    candidate base is scanned over [g_min/3, g_min] at resolution
    `base_search_tolerance * g_min`, which must resolve g_min against g_max
    (DegenerateGapsError if g_min < base_search_tolerance * g_max); for each
    candidate every gap ratio is rounded to the nearest odd integer (ties up)
    and the candidate with the smallest summed squared relative gap deviation
    wins.  The output spectrum is rebuilt antisymmetrically from the center
    outward, so the PST condition holds exactly afterward.

    The candidates are scored in blocks of _SCAN_BLOCK, so the scan holds a
    _SCAN_BLOCK x (N - 1) table instead of one row per candidate.  A later
    block replaces the best so far only with a strictly smaller score, so a
    tie keeps the first (smallest) base, as `np.argmin` over all candidates
    would.  A tolerance that asks for more than MAX_SCAN_CANDIDATES bases
    raises ValueError before anything is allocated.

    For fractional exponents the score tends to fall as the base shrinks, so
    the window's lower edge g_min/3 fixes the transfer time: the winning base
    lies near that edge, and a window reaching further down would give a
    smaller base and a longer t_pst.
    """
    if spectrum.n_sites % 2 == 0:
        raise ValueError("commensurate_adjust needs an odd number of levels")
    if not 0 < base_search_tolerance < np.inf:
        raise ValueError("base_search_tolerance must be positive and finite")
    n_candidates = float(np.rint((2.0 / 3.0) / base_search_tolerance)) + 1
    if n_candidates > MAX_SCAN_CANDIDATES:
        raise ValueError(
            f"base_search_tolerance {base_search_tolerance:g} asks for "
            f"{n_candidates:.3g} candidate bases; the scan takes at most "
            f"{MAX_SCAN_CANDIDATES} (a tolerance of at least "
            f"{(2.0 / 3.0) / (MAX_SCAN_CANDIDATES - 1):.3g})"
        )
    gaps = spectrum.gaps
    g_min = float(gaps.min())
    if g_min < np.finfo(float).tiny:
        raise DegenerateGapsError(
            f"smallest gap {g_min:g} is subnormal; cannot resolve a common base"
        )

    try:
        timing = pst_time(spectrum)
        return _snap(timing.odd_multipliers, float(np.pi / timing.t_pst)), timing
    except NotCommensurateError:
        pass

    g_max = float(gaps.max())
    if g_min < base_search_tolerance * g_max:
        raise DegenerateGapsError(
            f"smallest gap {g_min:g} is below {base_search_tolerance:g} x largest "
            f"gap {g_max:g}; cannot resolve a common base"
        )
    bases = np.linspace(g_min / 3.0, g_min, int(n_candidates))
    best, multipliers = _best_base(gaps, bases)
    snapped = _snap(multipliers, float(bases[best]))
    # Re-derive the timing from the snapped gaps: the rounded multipliers may
    # share a common odd factor, in which case the true base is larger.
    timing = pst_time(snapped)
    return snapped, timing


def max_relative_change(original: Spectrum, adjusted: Spectrum) -> float:
    """Largest value change between two spectra, relative to the energy scale."""
    if original.n_sites != adjusted.n_sites:
        raise ValueError("spectra differ in length")
    scale = max(original.omega_max, adjusted.omega_max)
    return float(np.max(np.abs(adjusted.values - original.values)) / scale)


def _best_base(gaps: np.ndarray, bases: np.ndarray) -> tuple[int, np.ndarray]:
    """Index of the first best-scoring candidate base and its odd multipliers.

    Scored _SCAN_BLOCK candidates at a time; see commensurate_adjust.
    """
    best_score = np.inf
    for start in range(0, bases.size, _SCAN_BLOCK):
        ratios = gaps[None, :] / bases[start:start + _SCAN_BLOCK, None]
        nearest_odd = 2.0 * np.floor(ratios / 2.0) + 1.0
        scores = (((ratios - nearest_odd) / ratios) ** 2).sum(axis=1)
        row = int(np.argmin(scores))
        if scores[row] < best_score:
            best, best_score = start + row, scores[row]
            multipliers = nearest_odd[row].astype(int)
    return best, multipliers


def _snap(multipliers: np.ndarray, base: float) -> Spectrum:
    """Rebuild an odd-length antisymmetric spectrum from its exact odd-multiple gaps, one per gap."""
    m = np.asarray(multipliers, dtype=float)
    upper = base * np.cumsum(m[m.size // 2:])
    return Spectrum(np.concatenate([-upper[::-1], [0.0], upper]))
