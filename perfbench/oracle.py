"""Reference results computed without pstchain's own numerics.

Every chain is diagonalized as a dense matrix with `numpy.linalg.eigh`, and
disorder draws are re-derived from the documented stream scheme: realization
r of base seed s uses Generator(PCG64(SeedSequence(s, spawn_key=(r,)))) and
multiplies each coupling by 1 + U(-eps, eps).  Nothing here calls pstchain.
"""

from __future__ import annotations

import numpy as np


def dense_chain(couplings: np.ndarray) -> np.ndarray:
    """Zero-diagonal symmetric tridiagonal matrix with these off-diagonals."""
    n = couplings.size + 1
    h = np.zeros((n, n))
    i = np.arange(n - 1)
    h[i, i + 1] = couplings
    h[i + 1, i] = couplings
    return h


def end_to_end(couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and products a_{k,1} a_{k,N} of the chain."""
    values, vectors = np.linalg.eigh(dense_chain(couplings))
    return values, vectors[0] * vectors[-1]


def amplitude(values: np.ndarray, products: np.ndarray, times) -> np.ndarray:
    """|f_N(t)| = |sum_k a_{k,1} a_{k,N} exp(-i omega_k t)|."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    return np.abs(np.exp(-1j * np.outer(t, values)) @ products)


def fidelity(amp: np.ndarray) -> np.ndarray:
    """Averaged transfer fidelity |f|/3 + |f|^2/6 + 1/2, with |f| <= 1."""
    a = np.minimum(amp, 1.0)
    return a / 3.0 + a**2 / 6.0 + 0.5


def perturbed(couplings: np.ndarray, epsilon: float, base_seed: int, r: int) -> np.ndarray:
    seq = np.random.SeedSequence(int(base_seed), spawn_key=(int(r),))
    delta = np.random.Generator(np.random.PCG64(seq)).uniform(
        -epsilon, epsilon, size=couplings.size
    )
    return couplings * (1.0 + delta)


def ensemble(couplings, epsilon: float, n_realizations: int, base_seed: int, times):
    """Mean fidelity and its standard error over the disorder ensemble."""
    couplings = np.asarray(couplings, dtype=float)
    samples = np.array([
        fidelity(amplitude(*end_to_end(perturbed(couplings, epsilon, base_seed, r)), times))
        for r in range(n_realizations)
    ])
    mean = samples.mean(axis=0)
    std_error = samples.std(axis=0, ddof=1) / np.sqrt(n_realizations)
    return mean, std_error


def design_deviations(couplings, spectrum_values, t_pst: float) -> dict[str, float]:
    """How far a designed chain is from its targets.

    residual: max |eig(chain) - target| / omega_max; mirror: max |J_i -
    J_{N-i}| / max J; transfer: ||f_N(t_pst)| - 1|.
    """
    couplings = np.asarray(couplings, dtype=float)
    target = np.asarray(spectrum_values, dtype=float)
    values, products = end_to_end(couplings)
    return {
        "residual": float(np.max(np.abs(values - target)) / np.max(np.abs(target))),
        "mirror": float(np.max(np.abs(couplings - couplings[::-1])) / couplings.max()),
        "transfer": float(abs(amplitude(values, products, [t_pst])[0] - 1.0)),
    }
