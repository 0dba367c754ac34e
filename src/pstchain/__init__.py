"""Spin-chain channels engineered for perfect state transfer, and their
robustness under static coupling disorder."""

from .analysis import (
    LevelShiftStats,
    WindowMetrics,
    detect_first_maximum,
    level_shift_stats,
    linear_reference_time,
    participation_ratio,
    site_probabilities,
    speed_ratio,
    window_curvature,
    window_width,
)
from .disorder import (
    RNG_ALGORITHM_ID,
    DisorderModel,
    EnsembleResult,
    echo_decay,
    echo_times,
    perturb_couplings,
    run_ensemble,
)
from .dynamics import (
    EigenSystem,
    FidelityTrace,
    averaged_fidelity,
    diagonalize,
    end_to_end,
    fidelity_trace,
)
from .errors import (
    DegenerateGapsError,
    NoEchoError,
    NotCommensurateError,
    NoWindowError,
    NumericalError,
    ProductIdentityError,
    ReconstructionUnstableError,
)
from .inverse_eigen import (
    CouplingSet,
    reconstruct_couplings,
    verify_reconstruction,
)
from .pipeline import STANDARD_FAMILIES, DesignedChain, design_chain, design_standard
from .spectra import (
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

__version__ = "0.1.0"
