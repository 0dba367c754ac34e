"""Static coupling disorder: seeded ensembles and fidelity statistics.

Each bond coupling is multiplied by (1 + delta_i) with delta_i drawn
independently and uniformly from [-epsilon, +epsilon].  Realization r always
draws from the stream derived from (base_seed, r), so every result here is a
pure function of its inputs and bitwise reproducible.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import _transfer_abs, averaged_fidelity, chain_spectrum, end_to_end
from .dynamics import diagonalize  # noqa: F401  perfbench's self-test reads it from here
from .inverse_eigen import CouplingSet
from .spectra import freeze, pst_time

#: Identifier of the stream-derivation scheme recorded in all outputs:
#: realization r uses Generator(PCG64(SeedSequence(base_seed, spawn_key=(r,)))).
RNG_ALGORITHM_ID = "numpy-pcg64-seedsequence-spawnkey"


@dataclass(frozen=True)
class DisorderModel:
    """Relative disorder strength plus the ensemble and seeding parameters."""

    epsilon: float
    n_realizations: int
    base_seed: int

    def __post_init__(self):
        if not 0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and non-negative")
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        if not 0 <= int(self.base_seed) < 2**64:
            raise ValueError("base_seed must fit in 64 unsigned bits")


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
    if model.epsilon >= 1:
        raise ValueError("epsilon >= 1 could make couplings non-positive")
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
    (eigenvalues and the product identity; no eigenvectors).  `n_workers` has
    no effect; it is accepted only so that existing callers that pass it keep
    working.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    samples = np.array([
        averaged_fidelity(_transfer_abs(end_to_end(chain), times))
        for chain in realizations(couplings, model)
    ])
    mean = samples.mean(axis=0)
    if len(samples) > 1:
        std_error = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
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

    The echo times come from the unperturbed chain; NotCommensurateError
    propagates if its spectrum does not support PST.  `n_workers` has no
    effect; it is accepted only so that existing callers that pass it keep
    working.
    """
    if n_echoes < 1:
        raise ValueError("need at least one echo")
    timing = pst_time(chain_spectrum(couplings))
    echo_times = (2.0 * np.arange(1, n_echoes + 1) - 1.0) * timing.t_pst
    return run_ensemble(couplings, model, echo_times)


def fidelity_vs_strength(
    couplings: CouplingSet,
    epsilons,
    n_realizations: int,
    base_seed: int,
) -> np.ndarray:
    """Mean fidelity at the unperturbed t_pst versus disorder strength.

    One ensemble per strength, all sharing base_seed (so the underlying
    uniform draws are paired across strengths).  Returns rows of
    (epsilon, mean_fidelity, std_error).
    """
    epsilons = np.atleast_1d(np.asarray(epsilons, dtype=float))
    if not np.all((0 <= epsilons) & (epsilons < np.inf)):
        raise ValueError("disorder strengths must be finite and non-negative")
    timing = pst_time(chain_spectrum(couplings))
    rows = np.empty((epsilons.size, 3))
    for i, eps in enumerate(epsilons):
        model = DisorderModel(
            epsilon=float(eps), n_realizations=n_realizations, base_seed=base_seed
        )
        result = run_ensemble(couplings, model, [timing.t_pst])
        rows[i] = (eps, result.mean_fidelity[0], result.std_error[0])
    return rows
