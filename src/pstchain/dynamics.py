"""Single-excitation dynamics of a coupled chain.

The chain Hamiltonian restricted to one excitation is the N x N symmetric
tridiagonal matrix with the couplings on the off-diagonal (and zero diagonal
here, since local fields vanish).  All time evolution is done spectrally, so
commensurate chains are exactly periodic instead of drifting the way a step
integrator would.

End-to-end transfer needs only the levels omega_k and the products
a_{k,1} a_{k,N}, which `end_to_end` takes from the eigenvalues alone; the
full eigensystem (`diagonalize`) is solved only where eigenvectors are read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ProductIdentityError
from .inverse_eigen import CouplingSet
from .spectra import Spectrum, freeze

#: Orthonormality requirement on eigenvector matrices, max |A A^T - I|, and on
#: end-to-end products, |sum_k P_k| and sum_k |P_k| - 1.
ORTHONORMALITY_TOL = 1e-10
#: Most time points per block of the phase sum, which bounds its time x N matrix.
PHASE_BLOCK = 1024


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and eigenvectors of a chain.

    Row k of `eigenvectors` is the k-th eigenstate over sites, signed so that
    its first component is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        n = vals.size
        if vecs.shape != (n, n):
            raise ValueError("eigenvector matrix must be square, one row per level")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")
        # |A A^T - I| in place, so the check holds one N x N array; the
        # product is C-contiguous, so ravel() is a view and [:: n + 1] its diagonal
        gram = vecs @ vecs.T
        gram.ravel()[:: n + 1] -= 1.0
        if np.max(np.abs(gram, out=gram)) > ORTHONORMALITY_TOL:
            raise ValueError("eigenvector matrix is not orthonormal")
        del gram  # the private copy is taken only once the input has passed
        freeze(self, "eigenvalues", "eigenvectors")

    @property
    def n_sites(self) -> int:
        return self.eigenvalues.size

    @property
    def end_to_end_products(self) -> np.ndarray:
        """a_{k,N} * a_{k,1}, the only eigenvector data entering f_N(t)."""
        return self.eigenvectors[:, -1] * self.eigenvectors[:, 0]


@dataclass(frozen=True)
class FidelityTrace:
    """End-to-end amplitude magnitude and averaged fidelity on a time grid."""

    times: np.ndarray
    amplitude_abs: np.ndarray
    fidelity: np.ndarray

    def __post_init__(self):
        freeze(self, "times", "amplitude_abs", "fidelity")
        t, a = self.times, self.amplitude_abs
        if not (t.shape == a.shape == self.fidelity.shape) or t.ndim != 1:
            raise ValueError("times, amplitude_abs and fidelity must be aligned 1-D arrays")
        if np.any(a < 0) or np.any(a > 1 + 1e-9):
            raise ValueError("|f_N| must lie in [0, 1]")


def diagonalize(couplings: CouplingSet) -> EigenSystem:
    """Full eigensystem of the chain's tridiagonal single-excitation matrix."""
    vals, vecs = eigh_tridiagonal(np.zeros(couplings.n_sites), couplings.couplings)
    a = vecs.T
    # Positive off-diagonals guarantee nonvanishing first components, so the
    # sign convention a_{k,1} > 0 is always realizable.
    a *= np.where(a[:, 0] < 0, -1.0, 1.0)[:, None]
    return EigenSystem(eigenvalues=vals, eigenvectors=a)


def end_to_end(couplings: CouplingSet) -> tuple[np.ndarray, np.ndarray]:
    """Ascending levels and end-to-end products P_k = a_{k,1} a_{k,N}.

    For a Jacobi matrix, P_k = prod_i J_i / prod_{j != k} (omega_k - omega_j),
    so no eigenvector is solved.  The identity is evaluated in the log domain
    on one N x N scratch array of log|omega_k - omega_j|, with the sign
    (-1)^(N-1-k) of the denominator.  Two checks to ORTHONORMALITY_TOL stand
    in for a Gram check: |sum_k P_k| <= tol (completeness gives 0, and so
    does the identity for any distinct levels, so this tests the evaluation)
    and sum_k |P_k| <= 1 + tol (Cauchy-Schwarz; levels squeezed together
    inflate the products past it).  Neither detects two levels whose gap is
    near the solver's error, whose products are then inaccurate.

    Raises ProductIdentityError when computed levels coincide or a check
    fails.  Both arrays are read-only.
    """
    levels = couplings.eigenvalues()
    n = levels.size
    if not np.all(np.diff(levels) > 0):
        raise ProductIdentityError(f"computed levels of the {n}-site chain coincide")
    log_gaps = np.subtract.outer(levels, levels)
    np.abs(log_gaps, out=log_gaps)
    log_gaps.ravel()[:: n + 1] = 1.0  # log 1 = 0 leaves j = k out of the sum
    log_p = np.log(couplings.couplings).sum() - np.log(log_gaps, out=log_gaps).sum(axis=1)
    # capped at e: a |P_k| > 1 fails the check below anyway, and exp cannot overflow
    products = np.exp(np.minimum(log_p, 1.0, out=log_p), out=log_p)
    products[n - 2 :: -2] *= -1.0
    total, mass = abs(products.sum()), np.abs(products).sum()
    if not (total <= ORTHONORMALITY_TOL and mass <= 1.0 + ORTHONORMALITY_TOL):
        raise ProductIdentityError(
            f"end-to-end products of the {n}-site chain fail the completeness checks: "
            f"|sum P_k| = {total:.3g}, sum |P_k| = {mass:.17g}"
        )
    levels.setflags(write=False)
    products.setflags(write=False)
    return levels, products


def chain_spectrum(couplings: CouplingSet) -> Spectrum:
    """Eigenvalues of a zero-field chain as an exactly antisymmetric Spectrum.

    The matrix is bipartite (zero diagonal), so its true spectrum is exactly
    symmetric about zero; the solver output is symmetrized to remove the
    last-ulp noise that would otherwise fail the Spectrum invariants.
    """
    vals = couplings.eigenvalues()
    return Spectrum(0.5 * (vals - vals[::-1]))


def transfer_amplitude(transfer: tuple[np.ndarray, np.ndarray], t: float) -> complex:
    """End-to-end amplitude f_N(t) = sum_k P_k exp(-i omega_k t) of (levels, products)."""
    if t < 0:
        raise ValueError("time must be non-negative")
    levels, products = transfer
    return complex(np.sum(products * np.exp(-1j * levels * t)))


def site_amplitudes(eig: EigenSystem, t: float) -> np.ndarray:
    """Amplitudes f_i(t) on every site; their squared moduli sum to 1."""
    if t < 0:
        raise ValueError("time must be non-negative")
    phases = np.exp(-1j * eig.eigenvalues * t) * eig.eigenvectors[:, 0]
    return eig.eigenvectors.T @ phases


def averaged_fidelity(amplitude_abs):
    """Transfer fidelity averaged over all pure input states.

    F = |f|/3 + |f|^2/6 + 1/2, assuming the transmission phase has been
    compensated.  Accepts scalars or arrays; values outside [0, 1] beyond a
    small numerical margin are rejected.
    """
    a = np.asarray(amplitude_abs, dtype=float)
    if np.any(a < -1e-9) or np.any(a > 1 + 1e-9):
        raise ValueError("amplitude magnitude must lie in [0, 1]")
    a = np.clip(a, 0.0, 1.0)
    result = a / 3.0 + a**2 / 6.0 + 0.5
    if np.isscalar(amplitude_abs) or result.ndim == 0:
        return float(result)
    return result


def fidelity_trace(
    transfer: tuple[np.ndarray, np.ndarray], t_start: float, t_end: float, n_points: int
) -> FidelityTrace:
    """Evaluate |f_N| and F on a uniform time grid from (levels, products)."""
    if not t_start < t_end:
        raise ValueError("need t_start < t_end")
    if n_points < 2:
        raise ValueError("need at least 2 grid points")
    times = np.linspace(t_start, t_end, n_points)
    amp = _transfer_abs(transfer, times)
    return FidelityTrace(times=times, amplitude_abs=amp, fidelity=averaged_fidelity(amp))


def _transfer_abs(transfer: tuple[np.ndarray, np.ndarray], times: np.ndarray) -> np.ndarray:
    """|f_N(t)| of (levels, products) on a time grid, clipped at 1 against rounding.

    The grid is evaluated in near-equal blocks of at most PHASE_BLOCK points,
    so memory stays bounded on long grids.  From two rows on, each row's sum
    does not depend on its block; equal splitting keeps every block at two
    rows or more unless the grid has one point, because numpy evaluates a
    one-row product on another path whose last bits differ.  Each block's
    phases are exponentiated in place.
    """
    levels, products = transfer
    n_blocks = -(-times.size // PHASE_BLOCK) or 1
    edges = [times.size * i // n_blocks for i in range(n_blocks + 1)]
    amp = np.empty(times.size)
    for a, b in zip(edges, edges[1:]):
        phases = -1j * np.outer(times[a:b], levels)
        amp[a:b] = np.abs(np.exp(phases, out=phases) @ products)
    return np.minimum(amp, 1.0, out=amp)
