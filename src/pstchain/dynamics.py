"""Single-excitation dynamics of a coupled chain.

The chain Hamiltonian restricted to one excitation is the N x N symmetric
tridiagonal matrix with the couplings on the off-diagonal (and zero diagonal
here, since local fields vanish).  All time evolution is done spectrally, so
commensurate chains are exactly periodic instead of drifting the way a step
integrator would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .inverse_eigen import CouplingSet
from .spectra import Spectrum, freeze

#: Orthonormality requirement on eigenvector matrices, max |A A^T - I|.
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


def chain_spectrum(couplings: CouplingSet) -> Spectrum:
    """Eigenvalues of a zero-field chain as an exactly antisymmetric Spectrum.

    The matrix is bipartite (zero diagonal), so its true spectrum is exactly
    symmetric about zero; the solver output is symmetrized to remove the
    last-ulp noise that would otherwise fail the Spectrum invariants.
    """
    vals = couplings.eigenvalues()
    return Spectrum(0.5 * (vals - vals[::-1]))


def transfer_amplitude(eig: EigenSystem, t: float) -> complex:
    """End-to-end amplitude f_N(t) = sum_k a_{k,N} a_{k,1} exp(-i omega_k t)."""
    if t < 0:
        raise ValueError("time must be non-negative")
    phases = np.exp(-1j * eig.eigenvalues * t)
    return complex(np.sum(eig.end_to_end_products * phases))


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
    eig: EigenSystem, t_start: float, t_end: float, n_points: int
) -> FidelityTrace:
    """Evaluate |f_N| and F on a uniform time grid."""
    if not t_start < t_end:
        raise ValueError("need t_start < t_end")
    if n_points < 2:
        raise ValueError("need at least 2 grid points")
    times = np.linspace(t_start, t_end, n_points)
    amp = _transfer_abs(eig, times)
    return FidelityTrace(times=times, amplitude_abs=amp, fidelity=averaged_fidelity(amp))


def _transfer_abs(eig: EigenSystem, times: np.ndarray) -> np.ndarray:
    """|f_N(t)| on a time grid, clipped at 1 against rounding.

    The grid is evaluated in near-equal blocks of at most PHASE_BLOCK points,
    so memory stays bounded on long grids.  From two rows on, each row's sum
    does not depend on its block; equal splitting keeps every block at two
    rows or more unless the grid has one point, because numpy evaluates a
    one-row product on another path whose last bits differ.  Each block's
    phases are exponentiated in place.
    """
    n_blocks = -(-times.size // PHASE_BLOCK) or 1
    edges = [times.size * i // n_blocks for i in range(n_blocks + 1)]
    amp = np.empty(times.size)
    for a, b in zip(edges, edges[1:]):
        phases = -1j * np.outer(times[a:b], eig.eigenvalues)
        amp[a:b] = np.abs(np.exp(phases, out=phases) @ eig.end_to_end_products)
    return np.minimum(amp, 1.0, out=amp)
