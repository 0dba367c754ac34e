"""End-to-end chain design: spectrum -> commensuration -> couplings.

The standard workflow generates a spectrum family member at unit amplitude,
snaps it commensurate if needed (the spectrum stage), solves the inverse
eigenvalue problem, and then rescales spectrum and couplings jointly so that
the largest coupling is exactly 1 (times rescale inversely).  A designed
chain caches nothing: its coupling set keeps the levels solved for the
verification, and no eigenvector is solved here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import speed_ratio
from .inverse_eigen import CouplingSet, reconstruct_couplings, verify_reconstruction
from .spectra import (
    BASE_SEARCH_TOLERANCE,
    BOUNDARY,
    CENTER,
    PstTiming,
    Spectrum,
    SpectrumSpec,
    commensurate_adjust,
    generate_spectrum,
    max_relative_change,
    pst_time,
)

#: The five spectrum shapes studied throughout: (family, exponent).
STANDARD_FAMILIES = {
    "linear": (CENTER, 1.0),
    "quadratic": (CENTER, 2.0),
    "sqrt_boundary": (BOUNDARY, 0.5),
    "sqrt_center": (CENTER, 0.5),
    "quadratic_boundary": (BOUNDARY, 2.0),
}


@dataclass(frozen=True)
class SpectrumStage:
    """A PST-compatible family member before normalization, and its parameters."""

    spec: SpectrumSpec
    base_search_tolerance: float
    no_adjust: bool
    spectrum: Spectrum
    timing: PstTiming
    max_adjustment: float


@dataclass(frozen=True)
class DesignedChain:
    """A fully designed transfer chain and its headline figures of merit."""

    stage: SpectrumStage  # parameters, spectrum and timing before normalization
    normalize: bool
    spectrum: Spectrum
    couplings: CouplingSet
    t_pst: float  # stage.timing.t_pst rescaled; the multipliers stay at stage.timing
    residual: float
    gamma: float

    @property
    def spec(self) -> SpectrumSpec:
        return self.stage.spec

    @property
    def n_sites(self) -> int:
        return self.spec.n_sites


def spectrum_stage(
    spec: SpectrumSpec,
    base_search_tolerance: float = BASE_SEARCH_TOLERANCE,
    no_adjust: bool = False,
) -> SpectrumStage:
    """Generate a family member and make it PST-compatible.

    With no_adjust it is only timed: NotCommensurateError if it does not support PST.
    """
    raw = generate_spectrum(spec)
    if no_adjust:
        spectrum, timing, change = raw, pst_time(raw), 0.0
    else:
        spectrum, timing = commensurate_adjust(raw, base_search_tolerance)
        change = max_relative_change(raw, spectrum)
    return SpectrumStage(spec, base_search_tolerance, no_adjust, spectrum, timing, change)


def design_chain(
    n_sites: int,
    family: str,
    exponent: float,
    amplitude: float = 1.0,
    normalize: bool = True,
    base_search_tolerance: float = BASE_SEARCH_TOLERANCE,
) -> DesignedChain:
    """Design a PST chain for one spectrum family member.

    With normalize=True (the default) the returned couplings satisfy
    max_i J_i = 1 exactly and the spectrum and transfer time are rescaled
    consistently.
    """
    spec = SpectrumSpec(
        n_sites=n_sites, family=family, exponent=exponent, amplitude=amplitude
    )
    stage = spectrum_stage(spec, base_search_tolerance)
    couplings = reconstruct_couplings(stage.spectrum)
    scale = couplings.j_max if normalize else 1.0
    couplings = couplings.scaled(1.0 / scale)
    spectrum = stage.spectrum.scaled(1.0 / scale)
    t_pst = stage.timing.t_pst * scale
    residual = verify_reconstruction(couplings, spectrum)
    gamma = speed_ratio(t_pst, n_sites, couplings.j_max)
    return DesignedChain(
        stage=stage,
        normalize=normalize,
        spectrum=spectrum,
        couplings=couplings,
        t_pst=t_pst,
        residual=residual,
        gamma=gamma,
    )


def design_standard(name: str, n_sites: int) -> DesignedChain:
    """Design one of the five standard families by name."""
    if name not in STANDARD_FAMILIES:
        raise ValueError(
            f"unknown family name {name!r}; choose from {sorted(STANDARD_FAMILIES)}"
        )
    family, exponent = STANDARD_FAMILIES[name]
    return design_chain(n_sites, family, exponent)
