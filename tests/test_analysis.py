import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from pstchain.analysis import (
    LocalizationMap,
    _pair_curvature,
    detect_first_maximum,
    level_shift_stats,
    linear_reference_time,
    participation_ratio,
    site_probabilities,
    speed_ratio,
    window_curvature,
    window_width,
)
from pstchain.disorder import DisorderModel, perturb_couplings, run_ensemble
from pstchain.dynamics import FidelityTrace, diagonalize, end_to_end, fidelity_trace
from pstchain.errors import NoEchoError, NoWindowError
from pstchain.inverse_eigen import CouplingSet

from conftest import SEED


class TestSiteProbabilities:
    def test_two_site_uniform(self):
        pmap = site_probabilities(diagonalize(CouplingSet([1.0])))
        np.testing.assert_allclose(pmap.p, 0.5 * np.ones((2, 2)), atol=1e-14)

    def test_double_stochastic(self, chains31):
        for chain in chains31.values():
            p = site_probabilities(diagonalize(chain.couplings)).p
            np.testing.assert_allclose(p.sum(axis=0), np.ones(31), atol=1e-10)
            np.testing.assert_allclose(p.sum(axis=1), np.ones(31), atol=1e-10)

    def test_mirror_symmetry(self, chains31):
        p = site_probabilities(diagonalize(chains31["quadratic"].couplings)).p
        np.testing.assert_allclose(p, p[::-1, ::-1], atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalizationMap(np.array([[0.9, 0.1], [0.3, 0.7]]))


class TestParticipationRatio:
    def test_uniform_weights(self):
        assert participation_ratio(np.ones(8) / 8) == pytest.approx(8.0, rel=1e-12)

    def test_concentrated(self):
        w = np.zeros(8)
        w[3] = 1.0
        assert participation_ratio(w) == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_more_localized_than_sqrt_center(self, chains31):
        pr = {}
        for name in ("quadratic", "sqrt_center"):
            p = site_probabilities(diagonalize(chains31[name].couplings)).p
            pr[name] = participation_ratio(p[:, 0])
        assert pr["quadratic"] < pr["sqrt_center"]

    def test_localization_predicts_robustness(self, chains31):
        # the three most localized boundary-state families are exactly the
        # three most robust ones at strong disorder
        pr, fbar = {}, {}
        for name, chain in chains31.items():
            p = site_probabilities(diagonalize(chain.couplings)).p
            pr[name] = participation_ratio(p[:, 0])
            model = DisorderModel(epsilon=0.1, n_realizations=100, base_seed=SEED)
            fbar[name] = run_ensemble(chain.couplings, model, [chain.t_pst]).mean_fidelity[0]
        most_localized = set(sorted(pr, key=pr.get)[:3])
        most_robust = set(sorted(fbar, key=fbar.get, reverse=True)[:3])
        assert most_localized == most_robust == {"quadratic", "linear", "sqrt_boundary"}


class TestLevelShiftStats:
    def test_zero_level_is_rigid(self, chains31):
        chain = chains31["linear"]
        model = DisorderModel(epsilon=0.05, n_realizations=100, base_seed=SEED)
        stats = level_shift_stats(chain.couplings, model)
        assert stats.std[15] < 1e-12 * stats.normalization

    def test_profile_symmetric(self, chains31):
        chain = chains31["quadratic"]
        model = DisorderModel(epsilon=0.05, n_realizations=100, base_seed=SEED)
        stats = level_shift_stats(chain.couplings, model)
        np.testing.assert_allclose(
            stats.std, stats.std[::-1], atol=1e-12 * stats.normalization
        )

    def test_normalized_profiles_collapse_across_strengths(self, chains31):
        chain = chains31["linear"]
        profiles = {}
        for eps in (0.01, 0.05):
            model = DisorderModel(epsilon=eps, n_realizations=300, base_seed=SEED)
            profiles[eps] = level_shift_stats(chain.couplings, model).normalized_std
        keep = np.ones(31, dtype=bool)
        keep[15] = False  # exact-zero level carries no shift
        rel = np.abs(profiles[0.05][keep] - profiles[0.01][keep]) / profiles[0.01][keep]
        assert rel.max() < 0.1

    def test_matches_direct_eigenvalue_loop(self, chains31):
        chain = chains31["sqrt_center"]
        model = DisorderModel(epsilon=0.05, n_realizations=40, base_seed=SEED)
        stats = level_shift_stats(chain.couplings, model)
        zeros = np.zeros(31)
        omega0 = eigvalsh_tridiagonal(zeros, chain.couplings.couplings)
        deviations = np.array([
            eigvalsh_tridiagonal(zeros, perturb_couplings(chain.couplings, model, r).couplings)
            - omega0
            for r in range(40)
        ])
        np.testing.assert_array_equal(stats.omega_unperturbed, omega0)
        np.testing.assert_array_equal(stats.std, np.sqrt(np.mean(deviations**2, axis=0)))
        np.testing.assert_array_equal(stats.mean_shift, deviations.mean(axis=0))
        assert stats.normalization == 0.05 * float(np.max(np.abs(omega0)))

    def test_zero_strength_gives_exact_zeros(self, chains31):
        model = DisorderModel(epsilon=0.0, n_realizations=5, base_seed=SEED)
        stats = level_shift_stats(chains31["quadratic"].couplings, model)
        np.testing.assert_array_equal(stats.std, np.zeros(31))
        np.testing.assert_array_equal(stats.mean_shift, np.zeros(31))

    def test_mean_shift_small_at_weak_disorder(self, chains31):
        chain = chains31["linear"]
        model = DisorderModel(epsilon=0.01, n_realizations=300, base_seed=SEED)
        stats = level_shift_stats(chain.couplings, model)
        assert np.max(np.abs(stats.normalized_mean_shift)) < 0.1


class TestWindowCurvature:
    def test_two_site(self):
        J = 0.8
        assert window_curvature(end_to_end(CouplingSet([J]))) == pytest.approx(2.0 * J**2, rel=1e-12)

    def test_concentrated_weights_limit(self):
        omega = np.array([-2.0, 0.0, 2.0])
        p = np.array([0.0, 1.0, 0.0])
        assert _pair_curvature(omega, p) == 0.0

    def test_equals_twice_first_coupling_squared(self, chains31):
        # sum_k w_k omega_k^2 is the (1,1) element of H^2, i.e. J_1^2, and the
        # site-1 mean of omega vanishes, so kappa = 2 J_1^2 exactly
        for chain in chains31.values():
            j1 = chain.couplings.couplings[0]
            assert window_curvature(end_to_end(chain.couplings)) == pytest.approx(2.0 * j1**2, rel=1e-10)

    def test_quadratic_flatter_than_linear(self, chains31):
        assert window_curvature(
            end_to_end(chains31["quadratic"].couplings)
        ) < window_curvature(end_to_end(chains31["linear"].couplings))


class TestWindowWidth:
    def test_two_site_closed_form(self):
        # invert F = s/3 + s^2/6 + 1/2 at the threshold: s0 = sqrt(6 F0 - 2) - 1,
        # then |sin(J t)| >= s0 around the peak has width (pi - 2 asin s0) / J
        J, threshold = 1.1, 0.99
        transfer = end_to_end(CouplingSet([J]))
        t_peak = np.pi / (2.0 * J)
        tr = fidelity_trace(transfer, 0.0, 2.0 * t_peak, 40001)
        s0 = np.sqrt(6.0 * threshold - 2.0) - 1.0
        expected = (np.pi - 2.0 * np.arcsin(s0)) / J
        assert window_width(tr, threshold) == pytest.approx(expected, rel=1e-6)

    def test_quadratic_wider_than_linear(self, chains31):
        widths = {}
        for name in ("linear", "quadratic"):
            chain = chains31[name]
            transfer = end_to_end(chain.couplings)
            tr = fidelity_trace(transfer, 0.95 * chain.t_pst, 1.05 * chain.t_pst, 8001)
            widths[name] = window_width(tr, 0.99)
        assert widths["quadratic"] > widths["linear"]

    def test_nested_thresholds(self, chains31):
        chain = chains31["linear"]
        transfer = end_to_end(chain.couplings)
        tr = fidelity_trace(transfer, 0.9 * chain.t_pst, 1.1 * chain.t_pst, 8001)
        w95 = window_width(tr, 0.95)
        w99 = window_width(tr, 0.99)
        w999 = window_width(tr, 0.999)
        assert w999 < w99 < w95

    def test_no_window(self):
        transfer = end_to_end(CouplingSet([1.0]))
        tr = fidelity_trace(transfer, 0.0, 0.3, 100)  # peak far beyond the trace
        with pytest.raises(NoWindowError):
            window_width(tr, 0.99)

    def test_threshold_validation(self, chains31):
        transfer = end_to_end(chains31["linear"].couplings)
        tr = fidelity_trace(transfer, 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            window_width(tr, 0.4)


class TestDetectFirstMaximum:
    def test_linear_first_maximum_is_transfer(self, chains31):
        chain = chains31["linear"]
        tr = fidelity_trace(end_to_end(chain.couplings), 0.0, 1.05 * chain.t_pst, 4001)
        found = detect_first_maximum(tr)
        assert found.first_max_time == pytest.approx(chain.t_pst, rel=1e-4)
        assert found.first_max_fidelity == pytest.approx(1.0, abs=1e-6)

    def test_sqrt_center_echo_precedes_transfer(self, chains31):
        chain = chains31["sqrt_center"]
        tr = fidelity_trace(end_to_end(chain.couplings), 0.0, 1.05 * chain.t_pst, 8001)
        found = detect_first_maximum(tr)
        assert found.first_max_time < 0.5 * chain.t_pst
        assert found.first_max_fidelity < 0.99

    def test_two_site(self):
        J = 0.9
        transfer = end_to_end(CouplingSet([J]))
        tr = fidelity_trace(transfer, 0.0, 2.5 * np.pi / J, 4001)
        found = detect_first_maximum(tr)
        assert found.first_max_time == pytest.approx(np.pi / (2.0 * J), rel=1e-4)

    def test_no_echo_on_flat_floor(self):
        times = np.linspace(0.0, 1.0, 100)
        tr = FidelityTrace(times, np.zeros(100), 0.5 * np.ones(100))
        with pytest.raises(NoEchoError):
            detect_first_maximum(tr)


class TestSpeedRatio:
    def test_linear_benchmark_definition(self):
        ref = linear_reference_time(31, 1.0)
        assert ref == pytest.approx(np.pi * 31 / 4.0, rel=1e-12)
        assert speed_ratio(ref, 31, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_slowdown(self, chains31):
        assert chains31["quadratic"].gamma == pytest.approx(15.4, abs=0.5)

    def test_measured_linear_chain(self, chains31):
        # the discrete chain peaks at sqrt((N^2-1)/4) / (N/2) of the envelope
        # maximum, so its measured ratio is sqrt(1 - 1/N^2), not exactly 1
        gamma = chains31["linear"].gamma
        assert gamma == pytest.approx(np.sqrt(1.0 - 1.0 / 31**2), rel=1e-12)

    def test_invariant_under_joint_rescaling(self):
        g1 = speed_ratio(100.0, 31, 2.0)
        g2 = speed_ratio(50.0, 31, 4.0)  # t halves only if j_max held fixed
        assert speed_ratio(50.0, 31, 2.0) == pytest.approx(g1 / 2.0, rel=1e-12)
        assert g2 == pytest.approx(g1, rel=1e-12)

    def test_positive_arguments_required(self):
        with pytest.raises(ValueError):
            speed_ratio(-1.0, 31, 1.0)
        with pytest.raises(ValueError):
            linear_reference_time(31, 0.0)
