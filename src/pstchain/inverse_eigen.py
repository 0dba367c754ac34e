"""Inverse eigenvalue problem for mirror-symmetric chains.

An antisymmetric, non-degenerate spectrum determines a unique zero-diagonal
Jacobi matrix with positive, mirror-symmetric couplings.  The construction
goes through the spectral weights (squared first eigenvector components) and
a Lanczos three-term recursion on the diagonalized operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import logsumexp

from .errors import ReconstructionUnstableError
from .spectra import Spectrum, freeze

#: Lanczos diagonal entries must stay below this fraction of omega_max.
DIAGONAL_TOLERANCE = 1e-10
#: A squared recursion coefficient below this fraction of omega_max**2 aborts.
BREAKDOWN_TOLERANCE = 1e-13


@dataclass(frozen=True)
class CouplingSet:
    """Nearest-neighbor exchange couplings of a chain, with zero local fields.

    Mirror symmetry J_i = J_{N-i} is a property of reconstructed coupling
    sets, not of the type: disorder realizations intentionally break it.
    """

    couplings: np.ndarray

    def __post_init__(self):
        freeze(self, "couplings")
        j = self.couplings
        if j.ndim != 1 or j.size < 1:
            raise ValueError("couplings must be a 1-D array with at least 1 entry")
        if not np.all((j > 0) & (j < np.inf)):
            raise ValueError("all couplings must be positive and finite")

    @property
    def n_sites(self) -> int:
        return self.couplings.size + 1

    @property
    def j_max(self) -> float:
        return float(self.couplings.max())

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the chain's zero-field tridiagonal matrix."""
        return eigvalsh_tridiagonal(np.zeros(self.n_sites), self.couplings)

    def scaled(self, factor: float) -> "CouplingSet":
        if not factor > 0:
            raise ValueError("scale factor must be positive")
        return CouplingSet(self.couplings * factor)


@dataclass(frozen=True)
class SpectralWeights:
    """Squared first eigenvector components, normalized to unit sum."""

    weights: np.ndarray

    def __post_init__(self):
        freeze(self, "weights")
        w = self.weights
        if w.ndim != 1 or np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")


def spectral_weights(spectrum: Spectrum) -> SpectralWeights:
    """Weights w_k = c / prod_{j != k} |omega_k - omega_j| with sum(w) = 1.

    These are the unique first-component squares compatible with a
    mirror-symmetric (persymmetric) Jacobi matrix having the given spectrum.
    The product is evaluated in the log domain: for ~30 well-spread
    eigenvalues it spans far more orders of magnitude than double precision
    holds.  A weight that still underflows to zero raises
    ReconstructionUnstableError.
    """
    omega = spectrum.values
    with np.errstate(over="ignore"):  # a distance past the float range gives weight 0
        diff = np.abs(omega[:, None] - omega[None, :])
    np.fill_diagonal(diff, 1.0)
    if np.any(diff == 0.0):
        raise ValueError("repeated eigenvalues: spectral weights diverge")
    log_unnorm = -np.log(diff).sum(axis=1)
    log_w = log_unnorm - logsumexp(log_unnorm)
    weights = np.exp(log_w)
    if not np.all(weights > 0):
        raise ReconstructionUnstableError(
            f"spectral weights underflow (smallest log10 weight {log_w.min() / np.log(10):.1f})"
        )
    return SpectralWeights(weights)


def reconstruct_couplings(spectrum: Spectrum) -> CouplingSet:
    """Build the unique mirror-symmetric zero-diagonal chain with this spectrum.

    Runs the Lanczos three-term recursion on diag(omega) starting from the
    square-root weight vector, with full reorthogonalization.  The
    off-diagonal recursion coefficients are the couplings J_i; the diagonal
    coefficients must vanish for an antisymmetric spectrum and are checked
    against DIAGONAL_TOLERANCE * omega_max before being forced to exact zero.

    Raises ReconstructionUnstableError, carrying the 1-based bond index, when
    a squared off-diagonal coefficient falls below
    BREAKDOWN_TOLERANCE * omega_max**2 or overflows.  Both sides of that test
    scale alike, so the result does not depend on the energy scale.
    """
    omega = spectrum.values
    omega_max = float(np.max(np.abs(omega)))
    weights = spectral_weights(spectrum).weights
    alphas, betas = _lanczos_coefficients(omega, weights)
    max_diag = float(np.max(np.abs(alphas)))
    if max_diag > DIAGONAL_TOLERANCE * omega_max:
        raise ReconstructionUnstableError(
            f"diagonal recursion coefficients failed to vanish "
            f"(max |alpha| = {max_diag:.3e}); spectrum may not be antisymmetric"
        )
    return CouplingSet(betas)


def verify_reconstruction(couplings: CouplingSet, spectrum: Spectrum) -> float:
    """Max relative mismatch between the chain's eigenvalues and the target.

    Forward-diagonalizes the coupling set (independent of the reconstruction
    path) and returns max_k |omega_k(chain) - omega_k(target)| / omega_max.
    """
    if couplings.n_sites != spectrum.n_sites:
        raise ValueError("coupling set and spectrum sizes are inconsistent")
    achieved = couplings.eigenvalues()
    return float(np.max(np.abs(achieved - spectrum.values)) / spectrum.omega_max)


def _lanczos_coefficients(
    omega: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Three-term recursion coefficients of diag(omega) seeded by sqrt(weights).

    Full reorthogonalization (two passes per step) keeps the basis orthonormal
    to machine precision at the chain lengths of interest.
    """
    n = omega.size
    omega_max = float(np.max(np.abs(omega)))
    v = np.sqrt(weights)
    v = v / np.linalg.norm(v)
    basis = np.empty((n, n))
    basis[0] = v
    alphas = np.empty(n)
    betas = np.empty(n - 1)
    for j in range(n):
        q = basis[j]
        h = omega * q
        alphas[j] = q @ h
        if j == n - 1:
            break
        r = h - alphas[j] * q
        if j > 0:
            r -= betas[j - 1] * basis[j - 1]
        for _ in range(2):  # twice is enough
            r -= basis[: j + 1].T @ (basis[: j + 1] @ r)
        with np.errstate(over="ignore"):  # an overflow to inf is caught below
            beta_sq = float(r @ r)
        # beta^2 / omega_max^2, dividing twice so that no intermediate overflows
        ratio = beta_sq / omega_max / omega_max
        if not BREAKDOWN_TOLERANCE < ratio < np.inf:
            raise ReconstructionUnstableError(
                f"recursion coefficient {'overflowed' if ratio == np.inf else 'collapsed'} "
                f"at bond {j + 1} (beta^2 / omega_max^2 = {ratio:.3e})",
                site_index=j + 1,
            )
        betas[j] = np.sqrt(beta_sq)
        basis[j + 1] = r / betas[j]
    return alphas, betas
