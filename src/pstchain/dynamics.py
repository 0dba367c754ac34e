"""Single-excitation dynamics of a coupled chain.

The chain Hamiltonian restricted to one excitation is the N x N symmetric
tridiagonal matrix with the couplings on the off-diagonal (and zero diagonal
here, since local fields vanish).  All time evolution is done spectrally, so
commensurate chains are exactly periodic instead of drifting the way a step
integrator would.

End-to-end transfer needs only the levels omega_k and the products
a_{k,1} a_{k,N}; `end_to_end` takes them from the levels alone (the read-only,
exactly mirrored array `CouplingSet.eigenvalues` solves once per set), and
`_transfer_abs` is the one evaluator of |f_N(t)| built on them.  Only the
localization table solves the full eigensystem (`diagonalize`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ProductIdentityError
from .inverse_eigen import CouplingSet
from .spectra import freeze

#: Orthonormality requirement on eigenvector matrices, max |A A^T - I|, and on
#: end-to-end products, |sum_k P_k| and sum_k |P_k| - 1.
ORTHONORMALITY_TOL = 1e-10
#: Bound on sum_k |P_k| e_k, the first-order error of the end-to-end products
#: from near-coincident levels of one sign.  Designed chains up to N = 1001
#: stay below 3e-11, and chains of 1001 sites under coupling disorder up to
#: 99% below 1e-9.
PRODUCT_ERROR_TOL = 1e-6
#: Most time points per block of the phase sum, which bounds its time x m matrix.
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
        if not np.all(np.diff(vals) >= 0):  # NaN fails too
            raise ValueError("eigenvalues must be ascending")
        # |A A^T - I| in place, so the check holds one N x N array; the
        # product is C-contiguous, so ravel() is a view and [:: n + 1] its diagonal
        gram = vecs @ vecs.T
        gram.ravel()[:: n + 1] -= 1.0
        if not np.max(np.abs(gram, out=gram)) <= ORTHONORMALITY_TOL:
            raise ValueError("eigenvector matrix is not orthonormal")
        del gram  # the private copy is taken only once the input has passed
        freeze(self, "eigenvalues", "eigenvectors")


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
        if not np.all((a >= 0) & (a <= 1 + 1e-9)):
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
    so no eigenvector is solved.  The zero-field chain is bipartite: its
    levels are 0 (odd N) and +-sigma_k, and the two levels of a pair carry
    equal (odd N) or opposite (even N) products.  So the identity is
    evaluated in the log domain for the m = N // 2 positive levels only
    (`CouplingSet.eigenvalues` returns them exactly mirrored), on one m x m
    array whose row k holds |sigma_k - sigma_j| (sigma_k + sigma_j) off the
    diagonal and, on it, 2 sigma_k^2 (odd N) or 2 sigma_k (even N): the
    factors of the partner -sigma_k and of level 0.  The levels are first
    scaled by a power of two, which is exact and keeps those squares in
    range.  Level 0 carries P_0 = prod_i J_i / prod_j (-sigma_j^2).

    Before the logs, the gaps between positive levels give each product's
    first-order relative error e_k = 2 u sigma_max sum_j 1 / |sigma_k - sigma_j|
    (u the unit roundoff; a solver level is off by up to u sigma_max).  Above
    PRODUCT_ERROR_TOL, sum_k |P_k| e_k says that two levels of one sign that
    carry end-to-end weight are too close to resolve.  The gaps 2 sigma_k and
    sigma_k to the partner and to level 0 are not counted: they are small
    only where strong disorder crowds levels toward zero energy.  There the
    symmetrization cancels most of the solver's error, and a cluster's
    products enter f_N(t) through their sum while sigma_k t << 1, which the
    identity keeps accurate however far sigma_k is off.  Its single products
    are not (at N = 1001 under 99% disorder, P_0 came out off by all of its
    5e-6 while |f_N| stayed within 2e-21 of an extended-precision reference).
    Two checks to ORTHONORMALITY_TOL stand in for a Gram check:
    |sum_k P_k| <= tol (completeness gives 0, and so does the identity for
    any distinct levels, so this tests the evaluation) and
    sum_k |P_k| <= 1 + tol (Cauchy-Schwarz; levels squeezed together inflate
    the products past it).

    Raises ProductIdentityError when computed levels coincide, the error
    estimate exceeds its bound or a check fails.  Both arrays are read-only
    and exactly mirrored (the levels are the coupling set's own shared array):
    levels[::-1] == -levels and products[::-1] == (-1)^(N-1) products.
    """
    levels = couplings.eigenvalues()
    n = levels.size
    if not np.all(np.diff(levels) > 0):
        raise ProductIdentityError(f"computed levels of the {n}-site chain coincide")
    m, odd = n // 2, n % 2
    scale = np.ldexp(1.0, -np.frexp(levels[-1])[1])
    sigma = levels[n - m :] * scale  # ascending, largest in [0.5, 1)
    pair_sums = np.add.outer(sigma, sigma)  # its diagonal 2 sigma_k is the gap to -sigma_k
    scratch = np.abs(np.subtract.outer(sigma, sigma))
    scratch.ravel()[:: m + 1] = np.inf  # j = k drops out of the gap sum
    log_j = np.log(couplings.couplings * scale).sum()
    with np.errstate(divide="ignore"):  # a zero gap gives an infinite error estimate
        relative = np.reciprocal(scratch).sum(axis=1)
        relative *= np.finfo(float).eps * sigma[-1]  # eps = 2 u
        scratch.ravel()[:: m + 1] = sigma if odd else 1.0  # the gap to level 0, if any
        np.multiply(scratch, pair_sums, out=scratch)
        log_p = log_j - np.log(scratch, out=scratch).sum(axis=1)
        log_p0 = log_j - 2.0 * np.log(sigma).sum()
    # capped at e: a |P_k| > 1 fails the check below anyway, and exp cannot overflow
    half = np.exp(np.minimum(log_p, 1.0, out=log_p), out=log_p)
    error = 2.0 * (half @ relative)  # both levels of each pair
    half[-2::-2] *= -1.0  # the sign (-1)^(m-1-k) of row k's denominator
    products = np.empty(n)
    products[n - m :] = half
    products[:m] = (-1.0) ** (n - 1) * half[::-1]
    if odd:
        products[m] = (-1.0) ** m * np.exp(min(log_p0, 1.0))
    if not error <= PRODUCT_ERROR_TOL:
        raise ProductIdentityError(
            f"levels of the {n}-site chain are too close to resolve their end-to-end "
            f"products: first-order error estimate {error:.3g}"
        )
    total, mass = abs(products.sum()), np.abs(products).sum()
    if not (total <= ORTHONORMALITY_TOL and mass <= 1.0 + ORTHONORMALITY_TOL):
        raise ProductIdentityError(
            f"end-to-end products of the {n}-site chain fail the completeness checks: "
            f"|sum P_k| = {total:.3g}, sum |P_k| = {mass:.17g}"
        )
    products.setflags(write=False)
    return levels, products


def averaged_fidelity(amplitude_abs):
    """Transfer fidelity averaged over all pure input states.

    F = |f|/3 + |f|^2/6 + 1/2, assuming the transmission phase has been
    compensated.  Accepts scalars or arrays; values outside [0, 1] beyond a
    small numerical margin, NaN included, are rejected.
    """
    a = np.asarray(amplitude_abs, dtype=float)
    if not np.all((a >= -1e-9) & (a <= 1 + 1e-9)):
        raise ValueError("amplitude magnitude must lie in [0, 1]")
    a = np.clip(a, 0.0, 1.0)
    result = a / 3.0 + a**2 / 6.0 + 0.5
    if np.isscalar(amplitude_abs) or result.ndim == 0:
        return float(result)
    return result


def fidelity_trace(
    transfer: tuple[np.ndarray, np.ndarray], t_start: float, t_end: float, n_points: int
) -> FidelityTrace:
    """Evaluate |f_N| and F on a uniform time grid from (levels, products).

    The pair must be exactly mirrored, as `end_to_end` returns it.
    """
    if not (np.isfinite(t_start) and np.isfinite(t_end)):
        raise ValueError("t_start and t_end must be finite")
    if not t_start < t_end:
        raise ValueError("need t_start < t_end")
    if n_points < 2:
        raise ValueError("need at least 2 grid points")
    _require_mirrored(transfer)
    times = np.linspace(t_start, t_end, n_points)
    amp = _transfer_abs(transfer, times)
    return FidelityTrace(times=times, amplitude_abs=amp, fidelity=averaged_fidelity(amp))


def _require_mirrored(transfer: tuple[np.ndarray, np.ndarray]) -> None:
    """Raise ValueError unless (levels, products) is exactly mirrored, as `_transfer_abs` needs."""
    levels, products = transfer
    partner = (-1.0) ** (levels.size - 1) * products[::-1]
    if not (np.array_equal(levels, -levels[::-1]) and np.array_equal(products, partner)):
        raise ValueError("(levels, products) must be exactly mirrored, as end_to_end returns them")


def _transfer_abs(transfer, times: np.ndarray, slope: bool = False) -> np.ndarray:
    """|f_N(t)| of a mirrored (levels, products) pair on a time grid, clipped at 1.

    With sigma_k and P_k the m = N // 2 positive levels and their products,
    f_N(t) = P_0 + 2 sum_k P_k cos(sigma_k t) for odd N (P_0 on level 0) and
    -2i sum_k P_k sin(sigma_k t) for even N, so each time point takes m real
    terms.  The grid is evaluated in blocks of PHASE_BLOCK points, so memory
    stays bounded on long grids, and each block's phases are turned into
    cosines or sines in place.  einsum reduces every row by itself, so a
    row's sum does not depend on its block; a BLAS matrix-vector product
    gives a block's last rows other last bits.  With `slope`, d|f_N|/dt =
    sign(g) g' of the real sum g is returned in its place.
    """
    levels, products = transfer
    n = levels.size
    m, odd = n // 2, n % 2
    sigma, twice = levels[n - m :], 2.0 * products[n - m :]
    wave = np.cos if odd else np.sin
    amp = np.empty(times.size)
    if slope:  # d/dt cos(sigma t) = -sigma sin(sigma t), d/dt sin(sigma t) = sigma cos(sigma t)
        rate_wave, rate_twice = (np.sin, -sigma * twice) if odd else (np.cos, sigma * twice)
        rate = np.empty(times.size)
    for a in range(0, times.size, PHASE_BLOCK):
        phases = np.outer(times[a : a + PHASE_BLOCK], sigma)
        if slope:
            rate[a : a + PHASE_BLOCK] = np.einsum("tk,k->t", rate_wave(phases), rate_twice)
        amp[a : a + PHASE_BLOCK] = np.einsum("tk,k->t", wave(phases, out=phases), twice)
    if odd:
        amp += products[m]
    if slope:
        return np.multiply(rate, np.sign(amp), out=rate)
    np.abs(amp, out=amp)
    return np.minimum(amp, 1.0, out=amp)
