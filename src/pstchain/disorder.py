"""Static coupling disorder: seeded ensembles and fidelity statistics.

Each bond coupling is multiplied by (1 + delta_i) with delta_i drawn
independently and uniformly from [-epsilon, +epsilon], 0 <= epsilon < 1.
Realization r always draws from the stream derived from (base_seed, r), so
every result here is a pure function of its inputs and bitwise reproducible.
Echo and sweep products time a designed chain by its `t_pst`; only
`echo_decay`, given a bare coupling set, times the chain from its levels.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import _transfer_abs, averaged_fidelity, end_to_end
from .dynamics import diagonalize  # noqa: F401  perfbench's self-test reads it from here
from .inverse_eigen import CouplingSet
from .spectra import Spectrum, freeze, pst_time

#: Identifier of the stream-derivation scheme recorded in all outputs:
#: realization r uses Generator(PCG64(SeedSequence(base_seed, spawn_key=(r,)))).
RNG_ALGORITHM_ID = "numpy-pcg64-seedsequence-spawnkey"


@dataclass(frozen=True)
class DisorderModel:
    """Relative disorder strength in [0, 1) plus the ensemble and seeding parameters."""

    epsilon: float
    n_realizations: int
    base_seed: int

    def __post_init__(self):
        if not 0 <= self.epsilon < 1:
            raise ValueError(
                f"disorder strength epsilon = {self.epsilon:g} is out of range: strengths must be "
                "finite and non-negative, and below 1 so that no coupling turns non-positive"
            )
        _require_integer("n_realizations", self.n_realizations)
        _require_integer("base_seed", self.base_seed)
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        if not 0 <= int(self.base_seed) < 2**64:
            raise ValueError("base_seed must fit in 64 unsigned bits")


def _require_integer(name: str, value) -> None:
    """Raise ValueError unless value is an integer (a Python int or a numpy integer)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class EnsembleResult:
    """Pointwise mean fidelity and standard error over disorder realizations."""

    times: np.ndarray
    mean_fidelity: np.ndarray
    std_error: np.ndarray
    realizations_used: int

    def __post_init__(self):
        freeze(self, "times", "mean_fidelity", "std_error")
        t = self.times
        if not (t.shape == self.mean_fidelity.shape == self.std_error.shape) or t.ndim != 1:
            raise ValueError("times, mean_fidelity and std_error must be aligned")


def realization_rng(model: DisorderModel, realization_index: int) -> np.random.Generator:
    """Independent, deterministic stream for one realization."""
    seq = np.random.SeedSequence(
        entropy=int(model.base_seed), spawn_key=(int(realization_index),)
    )
    return np.random.Generator(np.random.PCG64(seq))


def perturb_couplings(
    couplings: CouplingSet, model: DisorderModel, realization_index: int
) -> CouplingSet:
    """One disorder realization J_i -> J_i (1 + delta_i)."""
    if not 0 <= realization_index < model.n_realizations:
        raise ValueError(
            f"realization_index {realization_index} out of range "
            f"[0, {model.n_realizations})"
        )
    rng = realization_rng(model, realization_index)
    delta = rng.uniform(-model.epsilon, model.epsilon, size=couplings.couplings.size)
    return CouplingSet(couplings.couplings * (1.0 + delta))


def realizations(couplings: CouplingSet, model: DisorderModel) -> Iterator[CouplingSet]:
    """The perturbed chains of the ensemble, in realization index order.

    At zero strength every realization is the clean chain, so it is yielded
    once: a statistic over that one sample is the clean value bit for bit.
    """
    if model.epsilon == 0:
        yield couplings
        return
    for r in range(model.n_realizations):
        yield perturb_couplings(couplings, model, r)


def run_ensemble(
    couplings: CouplingSet,
    model: DisorderModel,
    times,
    n_workers: int = 1,
) -> EnsembleResult:
    """Disorder-averaged fidelity on a time grid.

    Realizations run in one loop in index order, each through `end_to_end`
    (eigenvalues and the product identity; no eigenvectors).  Each time's
    samples are reduced as one contiguous row, so its mean and standard error
    do not depend on the other times in the grid.  `n_workers` has no
    effect; it is accepted only so that existing callers that pass it keep
    working.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    per_time = np.ascontiguousarray(np.array([
        averaged_fidelity(_transfer_abs(end_to_end(chain), times))
        for chain in realizations(couplings, model)
    ]).T)
    n_samples = per_time.shape[1]
    mean = per_time.mean(axis=1)
    if n_samples > 1:
        std_error = per_time.std(axis=1, ddof=1) / np.sqrt(n_samples)
    else:
        std_error = np.zeros_like(mean)
    return EnsembleResult(
        times=times,
        mean_fidelity=mean,
        std_error=std_error,
        realizations_used=model.n_realizations,
    )


def echo_decay(
    couplings: CouplingSet,
    model: DisorderModel,
    n_echoes: int,
    n_workers: int = 1,
) -> EnsembleResult:
    """Mean fidelity at the unperturbed transfer echoes t_i = (2i - 1) t_pst.

    A coupling set carries no designed t_pst, so the chain is timed here from
    its own levels; NotCommensurateError propagates if its spectrum does not
    support PST.  `n_workers` has no effect; it is accepted only so that
    existing callers that pass it keep working.
    """
    odd = echo_times(1.0, n_echoes)  # checks the count before the levels are solved
    return run_ensemble(couplings, model, odd * pst_time(Spectrum(couplings.eigenvalues())).t_pst)


def echo_times(t_pst: float, n_echoes: int) -> np.ndarray:
    """The first n_echoes odd multiples (2i - 1) t_pst of a transfer time."""
    _require_integer("n_echoes", n_echoes)
    if n_echoes < 1:
        raise ValueError("need at least one echo")
    return (2.0 * np.arange(1, n_echoes + 1) - 1.0) * t_pst
