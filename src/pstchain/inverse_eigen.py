"""Inverse eigenvalue problem for mirror-symmetric chains.

An antisymmetric, non-degenerate spectrum of odd length N = 2m + 1 determines
a unique zero-diagonal Jacobi matrix with positive, mirror-symmetric
couplings.  Mirror symmetry splits the chain into a symmetric and an
antisymmetric sector whose levels interlace; the two spectra fix the
symmetric sector's squared centre components as products of ratios in
(0, 1), and a Lanczos three-term recursion on its m + 1 levels yields the
couplings from the centre outward (Hochstadt, Arch. Math. 18, 201 (1967);
de Boor & Golub, Linear Algebra Appl. 21, 245 (1978)).

`CouplingSet.eigenvalues` is the one level solve of a chain, made once per
set; every reader shares its exactly mirrored, read-only levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, eigvalsh_tridiagonal

from .errors import NumericalError, ReconstructionUnstableError
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
        """Ascending eigenvalues of the chain's zero-field tridiagonal matrix, exactly mirrored.

        Solved once per set and shared read-only by every call.  The chain is
        bipartite, so the solver's levels are symmetrized once, halved first so that
        no difference overflows: levels == -levels[::-1] exactly, with an exact 0 at
        the centre for odd N.  NumericalError, never cached, if the solver does not converge.
        """
        return self._levels

    @cached_property
    def _levels(self) -> np.ndarray:
        try:
            raw = eigvalsh_tridiagonal(np.zeros(self.n_sites), self.couplings)
        except LinAlgError as exc:
            raise NumericalError(f"eigenvalues of the {self.n_sites}-site chain: {exc}") from None
        raw *= 0.5
        levels = raw - raw[::-1]
        levels.setflags(write=False)
        return levels


def spectral_weights(spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Levels lambda and squared centre components z^2 of the symmetric sector.

    For N = 2m + 1 the mirror-symmetric chain splits into a symmetric sector S
    (m + 1 sites: couplings J_1 ... J_{m-1} and sqrt(2) J_m to the centre) with
    levels lambda = omega[::2], and an antisymmetric sector, the leading m x m
    block of S, with levels mu = omega[1::2].  The squared last components of
    S's eigenvectors are z_k^2 = prod_j r_kj with
    r_kj = (lambda_k - mu_j) / (lambda_k - lambda_{j + [j >= k]}).  Interlacing
    puts every ratio in (0, 1), so the product needs no logarithms.  The ratios
    are formed on the levels scaled by 2^-e (e the frexp exponent of omega_max),
    which keeps their bits and every difference below 2; lambda is returned
    unscaled.  The weights come normalized to unit sum; a weight that
    underflows to zero raises ReconstructionUnstableError.
    """
    omega = spectrum.values
    if omega.size % 2 == 0:
        raise ValueError("the two-sector inverse needs an odd number of levels")
    scaled = np.ldexp(omega, -np.frexp(spectrum.omega_max)[1])
    lam, mu = scaled[::2], scaled[1::2]
    n = lam.size
    # row k: lambda_k - lambda_j over j != k, ascending, which is j + [j >= k] for mu_j
    gaps = (lam[:, None] - lam[None, :])[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    z2 = np.prod((lam[:, None] - mu[None, :]) / gaps, axis=1)
    if not np.all(z2 > 0):
        raise ReconstructionUnstableError("a symmetric-sector weight underflows to zero")
    return omega[::2], z2 / z2.sum()


def reconstruct_couplings(spectrum: Spectrum) -> CouplingSet:
    """Build the unique mirror-symmetric zero-diagonal chain with this spectrum.

    Solves the (m+1)-level symmetric sector for N = 2m + 1 (`spectral_weights`):
    the Lanczos three-term recursion on diag(lambda), seeded by the square-root
    sector weights with full reorthogonalization, yields sqrt(2) J_m,
    J_{m-1}, ..., J_1 outward from the centre, and the mirror completes the
    chain exactly.  The diagonal coefficients must vanish for an antisymmetric
    spectrum and are checked against DIAGONAL_TOLERANCE * omega_max.  An
    even-length spectrum raises ValueError.

    Raises ReconstructionUnstableError, carrying the 1-based chain bond index
    (the left one of its mirror pair), when a squared off-diagonal coefficient
    falls below BREAKDOWN_TOLERANCE * omega_max**2.  The weights and the recursion
    run on levels scaled by a power of two, so the result does not depend on
    the energy scale.  `quadratic` at N = 4001 stops there, at its end bond
    (beta^2 / omega_max^2 = 9.1e-14 for J_1).
    """
    alphas, betas = _lanczos_coefficients(*spectral_weights(spectrum))
    max_diag = float(np.max(np.abs(alphas)))
    if max_diag > DIAGONAL_TOLERANCE * spectrum.omega_max:
        raise ReconstructionUnstableError(
            f"diagonal recursion coefficients failed to vanish "
            f"(max |alpha| = {max_diag:.3e}); spectrum may not be antisymmetric"
        )
    half = np.append(betas[:0:-1], betas[0] / np.sqrt(2.0))
    return CouplingSet(np.concatenate([half, half[::-1]]))


def verify_reconstruction(couplings: CouplingSet, spectrum: Spectrum) -> float:
    """Max relative mismatch between the chain's eigenvalues and the target.

    Solves the coupling set's levels (independent of the reconstruction path;
    the set keeps them for every later reader) and returns
    max_k |omega_k(chain) - omega_k(target)| / omega_max over those exactly
    mirrored levels.
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
    to machine precision at the chain lengths of interest.  The levels are
    scaled by 2^-e (e the frexp exponent of omega_max) and the coefficients
    back by 2^e, both exactly, so beta^2 <= 1 from a unit start vector at any
    energy scale.  The recursion runs on a symmetric sector from its centre
    site outward, so a breakdown at step j (1-based) of n levels is reported
    as chain bond n - j, the left one of its mirror pair.
    """
    n = omega.size
    exponent = np.frexp(np.max(np.abs(omega)))[1]
    omega = np.ldexp(omega, -exponent)
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
        beta_sq = float(r @ r)
        ratio = beta_sq / omega_max / omega_max
        if not BREAKDOWN_TOLERANCE < ratio:
            raise ReconstructionUnstableError(
                f"recursion coefficient collapsed at bond {n - 1 - j} (beta^2 / omega_max^2 = {ratio:.3e})",
                site_index=n - 1 - j,
            )
        betas[j] = np.sqrt(beta_sq)
        basis[j + 1] = r / betas[j]
    return np.ldexp(alphas, exponent), np.ldexp(betas, exponent)
