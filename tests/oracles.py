"""Reference evaluations that the tests hold pstchain's kernels against.

They take the direct route on purpose: the complex exponential sum over all
N levels, and the end-to-end products read off solved eigenvectors, where
the package takes real cosines over the positive levels and the product
identity.
"""

import numpy as np


def transfer_amplitude(transfer: tuple[np.ndarray, np.ndarray], t: float) -> complex:
    """End-to-end amplitude f_N(t) = sum_k P_k exp(-i omega_k t) of (levels, products)."""
    if t < 0:
        raise ValueError("time must be non-negative")
    levels, products = transfer
    return complex(np.sum(products * np.exp(-1j * levels * t)))


def end_products(eig) -> np.ndarray:
    """a_{k,1} a_{k,N} of an eigensystem whose row k is the k-th eigenstate over sites."""
    return eig.eigenvectors[:, 0] * eig.eigenvectors[:, -1]
