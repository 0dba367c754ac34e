import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from pstchain.disorder import (
    DisorderModel,
    EnsembleResult,
    echo_decay,
    fidelity_vs_strength,
    perturb_couplings,
    realizations,
    run_ensemble,
)
from pstchain.dynamics import diagonalize, end_to_end, fidelity_trace, transfer_amplitude, averaged_fidelity
from pstchain.errors import NotCommensurateError
from pstchain.inverse_eigen import CouplingSet

from conftest import SEED


def model(eps=0.01, nav=10, seed=SEED):
    return DisorderModel(epsilon=eps, n_realizations=nav, base_seed=seed)


class TestDisorderModel:
    def test_validation(self):
        for eps in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                DisorderModel(epsilon=eps, n_realizations=10, base_seed=1)
        with pytest.raises(ValueError):
            DisorderModel(epsilon=0.1, n_realizations=0, base_seed=1)
        with pytest.raises(ValueError):
            DisorderModel(epsilon=0.1, n_realizations=10, base_seed=2**64)


class TestPerturbCouplings:
    def test_zero_strength_identity(self, chains31):
        couplings = chains31["linear"].couplings
        out = perturb_couplings(couplings, model(eps=0.0), 3)
        np.testing.assert_array_equal(out.couplings, couplings.couplings)

    def test_bounded_by_epsilon(self, chains31):
        couplings = chains31["quadratic"].couplings
        m = model(eps=0.07, nav=50)
        for r in range(50):
            out = perturb_couplings(couplings, m, r)
            rel = np.abs(out.couplings / couplings.couplings - 1.0)
            assert rel.max() <= 0.07

    def test_deterministic(self, chains31):
        couplings = chains31["linear"].couplings
        a = perturb_couplings(couplings, model(eps=0.03), 5)
        b = perturb_couplings(couplings, model(eps=0.03), 5)
        np.testing.assert_array_equal(a.couplings, b.couplings)

    def test_realizations_differ(self, chains31):
        couplings = chains31["linear"].couplings
        a = perturb_couplings(couplings, model(eps=0.03), 0)
        b = perturb_couplings(couplings, model(eps=0.03), 1)
        assert not np.array_equal(a.couplings, b.couplings)

    def test_strength_one_rejected(self, chains31):
        with pytest.raises(ValueError, match="non-positive"):
            perturb_couplings(chains31["linear"].couplings, model(eps=1.0), 0)

    def test_index_out_of_range(self, chains31):
        with pytest.raises(ValueError, match="out of range"):
            perturb_couplings(chains31["linear"].couplings, model(nav=4), 4)


class TestRealizations:
    def test_perturbed_chains_in_index_order(self, chains31):
        couplings = chains31["quadratic"].couplings
        m = model(eps=0.04, nav=6)
        chains = list(realizations(couplings, m))
        assert len(chains) == 6
        for r, chain in enumerate(chains):
            expected = perturb_couplings(couplings, m, r)
            np.testing.assert_array_equal(chain.couplings, expected.couplings)

    def test_zero_strength_yields_input_once(self, chains31):
        couplings = chains31["linear"].couplings
        chains = list(realizations(couplings, model(eps=0.0, nav=7)))
        assert len(chains) == 1 and chains[0] is couplings


class TestRunEnsemble:
    def test_zero_strength_matches_clean_trace(self, chains31):
        chain = chains31["linear"]
        times = np.linspace(0.0, 2.0 * chain.t_pst, 101)
        res = run_ensemble(chain.couplings, model(eps=0.0, nav=7), times)
        clean = fidelity_trace(end_to_end(chain.couplings), 0.0, 2.0 * chain.t_pst, 101)
        np.testing.assert_array_equal(res.mean_fidelity, clean.fidelity)
        np.testing.assert_array_equal(res.std_error, np.zeros(101))

    def test_statistics_against_direct_loop(self, chains31):
        # independent recomputation of mean and standard error
        chain = chains31["quadratic"]
        m = model(eps=0.05, nav=12)
        times = np.array([0.5 * chain.t_pst, chain.t_pst])
        res = run_ensemble(chain.couplings, m, times)
        samples = []
        for r in range(12):
            # the full eigensystem, independent of the kernel's product identity
            eig = diagonalize(perturb_couplings(chain.couplings, m, r))
            transfer = (eig.eigenvalues, eig.end_to_end_products)
            samples.append([
                averaged_fidelity(abs(transfer_amplitude(transfer, t))) for t in times
            ])
        samples = np.array(samples)
        np.testing.assert_allclose(res.mean_fidelity, samples.mean(axis=0), atol=1e-14)
        np.testing.assert_allclose(
            res.std_error, samples.std(axis=0, ddof=1) / np.sqrt(12), atol=1e-14
        )
        assert res.realizations_used == 12
        assert np.all(res.mean_fidelity >= 0.5 - 3.0 * res.std_error)
        assert np.all(res.mean_fidelity <= 1.0 + 3.0 * res.std_error)

    def test_even_chain_against_direct_loop(self):
        # even N takes the sine branch of the phase sum: 15 pairs +-sigma_k
        # with opposite products, against the full complex sum over 30 levels
        base = CouplingSet(np.ones(29))
        m = model(eps=0.1, nav=6)
        times = np.linspace(0.0, 60.0, 37)
        res = run_ensemble(base, m, times)
        samples = []
        for r in range(6):
            eig = diagonalize(perturb_couplings(base, m, r))
            transfer = (eig.eigenvalues, eig.end_to_end_products)
            amp = np.array([abs(transfer_amplitude(transfer, t)) for t in times])
            trace = fidelity_trace(end_to_end(perturb_couplings(base, m, r)), 0.0, 60.0, 37)
            np.testing.assert_allclose(trace.amplitude_abs, amp, rtol=0, atol=1e-14)
            samples.append(averaged_fidelity(amp))
        samples = np.array(samples)
        np.testing.assert_allclose(res.mean_fidelity, samples.mean(axis=0), rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            res.std_error, samples.std(axis=0, ddof=1) / np.sqrt(6), rtol=0, atol=1e-14
        )

    def test_realizations_solve_no_eigenvectors(self, chains31, monkeypatch):
        import pstchain.disorder as disorder
        import pstchain.dynamics as dynamics

        def forbidden(*args, **kwargs):
            raise AssertionError("an eigenvector solve per realization")

        for module in (disorder, dynamics):
            monkeypatch.setattr(module, "diagonalize", forbidden)
        monkeypatch.setattr(dynamics, "eigh_tridiagonal", forbidden)
        kernel, solved = disorder.end_to_end, []
        monkeypatch.setattr(disorder, "end_to_end", lambda c: solved.append(c) or kernel(c))
        chain = chains31["quadratic_boundary"]
        run_ensemble(chain.couplings, model(eps=0.05, nav=6), [chain.t_pst])
        echo_decay(chain.couplings, model(eps=0.05, nav=6), 3)
        fidelity_vs_strength(chain.couplings, [0.0, 0.1], 6, SEED)
        assert len(solved) == 6 + 6 + 1 + 6

    def test_thread_pool_matches_serial(self, chains31):
        chain = chains31["linear"]
        times = np.linspace(0.0, chain.t_pst, 11)
        a = run_ensemble(chain.couplings, model(eps=0.02, nav=16), times, n_workers=1)
        b = run_ensemble(chain.couplings, model(eps=0.02, nav=16), times, n_workers=4)
        np.testing.assert_array_equal(a.mean_fidelity, b.mean_fidelity)
        np.testing.assert_array_equal(a.std_error, b.std_error)

    def test_single_realization_zero_stderr(self, chains31):
        chain = chains31["linear"]
        res = run_ensemble(chain.couplings, model(eps=0.02, nav=1), [chain.t_pst])
        np.testing.assert_array_equal(res.std_error, [0.0])

    def test_result_alignment_validated(self):
        with pytest.raises(ValueError):
            EnsembleResult(
                times=[0.0, 1.0], mean_fidelity=[1.0], std_error=[0.0],
                realizations_used=1,
            )


class TestEchoDecay:
    def test_zero_strength_perfect_echoes(self, chains31):
        chain = chains31["quadratic"]
        res = echo_decay(chain.couplings, model(eps=0.0, nav=3), 5)
        expected_times = (2 * np.arange(1, 6) - 1) * chain.t_pst
        np.testing.assert_allclose(res.times, expected_times, rtol=1e-12)
        np.testing.assert_allclose(res.mean_fidelity, np.ones(5), atol=1e-9)

    def test_first_echo_consistent_with_run_ensemble(self, chains31):
        chain = chains31["linear"]
        m = model(eps=0.04, nav=20)
        echoes = echo_decay(chain.couplings, m, 3)
        direct = run_ensemble(chain.couplings, m, [echoes.times[0]])
        # same seeds and times; only the BLAS kernel shape differs
        assert echoes.mean_fidelity[0] == pytest.approx(direct.mean_fidelity[0], abs=1e-14)
        assert echoes.std_error[0] == pytest.approx(direct.std_error[0], abs=1e-14)

    def test_quadratic_outlasts_linear(self, chains31):
        m = model(eps=0.05, nav=60)
        quad = echo_decay(chains31["quadratic"].couplings, m, 9)
        lin = echo_decay(chains31["linear"].couplings, m, 9)
        assert quad.mean_fidelity[-1] > lin.mean_fidelity[-1]

    def test_incommensurate_chain_rejected(self):
        uniform = CouplingSet(np.ones(4))  # cos-band spectrum, no common base
        with pytest.raises(NotCommensurateError):
            echo_decay(uniform, model(), 3)

    def test_echo_count_validated(self, chains31):
        with pytest.raises(ValueError):
            echo_decay(chains31["linear"].couplings, model(), 0)


class TestFidelityVsStrength:
    def test_zero_strength_row(self, chains31):
        rows = fidelity_vs_strength(chains31["linear"].couplings, [0.0], 5, SEED)
        assert rows[0, 0] == 0.0
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert rows[0, 2] == 0.0

    def test_statistical_monotonicity(self, chains31):
        eps = np.arange(0.0, 0.31, 0.05)
        rows = fidelity_vs_strength(chains31["linear"].couplings, eps, 60, SEED)
        means, errs = rows[:, 1], rows[:, 2]
        for i in range(len(eps) - 1):
            slack = 2.0 * np.hypot(errs[i], errs[i + 1])
            assert means[i + 1] <= means[i] + slack

    def test_negative_strength_rejected(self, chains31):
        for strengths in ([-0.1], [0.1, np.nan], [np.inf]):
            with pytest.raises(ValueError, match="finite and non-negative"):
                fidelity_vs_strength(chains31["linear"].couplings, strengths, 5, SEED)


class TestPerturbedSpectrumStructure:
    def test_symmetry_and_zero_mode(self, chains31):
        couplings = chains31["sqrt_center"].couplings
        m = model(eps=0.1, nav=50)
        for r in range(50):
            pc = perturb_couplings(couplings, m, r)
            vals = eigvalsh_tridiagonal(np.zeros(pc.n_sites), pc.couplings)
            scale = np.abs(vals).max()
            assert np.max(np.abs(vals + vals[::-1])) < 1e-10 * scale
            assert np.min(np.abs(vals)) < 1e-12 * scale
