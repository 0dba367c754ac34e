import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from pstchain import analysis
from pstchain.analysis import (
    LevelShiftStats,
    detect_first_maximum,
    level_shift_stats,
    linear_reference_time,
    participation_ratio,
    site_probabilities,
    speed_ratio,
    window_curvature,
    window_width,
)
from pstchain.cli import EXIT_OK, main, window_table
from pstchain.disorder import DisorderModel, perturb_couplings, run_ensemble
from pstchain.dynamics import averaged_fidelity, diagonalize, end_to_end
from pstchain.errors import NoEchoError, NoWindowError
from pstchain.inverse_eigen import CouplingSet
from pstchain.pipeline import STANDARD_FAMILIES, design_chain, design_standard
from pstchain.tableio import read_table

from conftest import SEED
from oracles import transfer_amplitude


class TestSiteProbabilities:
    def test_two_site_uniform(self):
        p = site_probabilities(CouplingSet([1.0]))
        np.testing.assert_allclose(p, 0.5 * np.ones((2, 2)), atol=1e-14)

    def test_double_stochastic(self, chains31):
        for chain in chains31.values():
            p = site_probabilities(chain.couplings)
            np.testing.assert_allclose(p.sum(axis=0), np.ones(31), atol=1e-10)
            np.testing.assert_allclose(p.sum(axis=1), np.ones(31), atol=1e-10)

    def test_mirror_symmetry(self, chains31):
        p = site_probabilities(chains31["quadratic"].couplings)
        np.testing.assert_allclose(p, p[::-1, ::-1], atol=1e-10)

    def test_squares_the_checked_eigenvectors_read_only(self, chains31):
        for chain in chains31.values():
            p = site_probabilities(chain.couplings)
            assert not p.flags.writeable
            assert p.tobytes() == (diagonalize(chain.couplings).eigenvectors ** 2).tobytes()


class TestParticipationRatio:
    def test_uniform_weights(self):
        assert participation_ratio(np.ones(8) / 8) == pytest.approx(8.0, rel=1e-12)

    def test_concentrated(self):
        w = np.zeros(8)
        w[3] = 1.0
        assert participation_ratio(w) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("weights", [
        [np.nan, 1.0], [np.inf, 1.0], [-1.0, 2.0], [0.0, 0.0], [1e308, 1e308], [],
    ], ids=["nan", "inf", "negative", "zero-sum", "overflowing-sum", "empty"])
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="non-negative, with a positive sum"):
            participation_ratio(weights)

    def test_quadratic_more_localized_than_sqrt_center(self, chains31):
        pr = {}
        for name in ("quadratic", "sqrt_center"):
            p = site_probabilities(chains31[name].couplings)
            pr[name] = participation_ratio(p[:, 0])
        assert pr["quadratic"] < pr["sqrt_center"]

    def test_localization_predicts_robustness(self, chains31):
        # the three most localized boundary-state families are exactly the
        # three most robust ones at strong disorder
        pr, fbar = {}, {}
        for name, chain in chains31.items():
            p = site_probabilities(chain.couplings)
            pr[name] = participation_ratio(p[:, 0])
            model = DisorderModel(epsilon=0.1, n_realizations=100, base_seed=SEED)
            fbar[name] = run_ensemble(chain.couplings, model, [chain.t_pst]).mean_fidelity[0]
        most_localized = set(sorted(pr, key=pr.get)[:3])
        most_robust = set(sorted(fbar, key=fbar.get, reverse=True)[:3])
        assert most_localized == most_robust == {"quadratic", "linear", "sqrt_boundary"}


class TestLevelShiftStats:
    @pytest.mark.parametrize("std", [np.nan, -1.0, -np.inf])
    def test_invalid_spread_rejected(self, std):
        with pytest.raises(ValueError, match="non-negative"):
            LevelShiftStats(std=[0.5, std], mean_shift=[0.0, 0.0], normalization=1.0, omega_unperturbed=[-1.0, 1.0])

    def test_zero_level_is_rigid(self, chains31):
        chain = chains31["linear"]
        model = DisorderModel(epsilon=0.05, n_realizations=100, base_seed=SEED)
        stats = level_shift_stats(chain.couplings, model)
        assert stats.std[15] < 1e-12 * stats.normalization

    @pytest.mark.parametrize("name", sorted(STANDARD_FAMILIES))
    def test_zero_mode_and_mirror_are_exact(self, chains31, name):
        # clean and perturbed levels are exactly mirrored, so the protected zero
        # mode reads 0, not solver noise, and the profiles mirror bit for bit
        model = DisorderModel(epsilon=0.05, n_realizations=100, base_seed=SEED)
        stats = level_shift_stats(chains31[name].couplings, model)
        assert stats.omega_unperturbed[15] == stats.std[15] == stats.mean_shift[15] == 0.0
        np.testing.assert_array_equal(stats.std, stats.std[::-1])
        np.testing.assert_array_equal(stats.mean_shift, -stats.mean_shift[::-1])

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

        def mirrored(couplings):
            raw = eigvalsh_tridiagonal(zeros, couplings.couplings)
            return 0.5 * (raw - raw[::-1])

        omega0 = mirrored(chain.couplings)
        deviations = np.array([
            mirrored(perturb_couplings(chain.couplings, model, r)) - omega0 for r in range(40)
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

    @pytest.mark.parametrize("name", STANDARD_FAMILIES)
    def test_weak_disorder_spread_matches_first_order_oracle(self, chains31, name):
        # first order in the bond perturbations J_i delta_i, delta_i ~ U(-eps, eps):
        # d omega_k = sum_i 2 J_i a_{k,i} a_{k,i+1} delta_i, so its spread is
        # (eps / sqrt 3) ||2 J_i a_{k,i} a_{k,i+1}||_2; no random draw enters
        eps, nav = 1e-3, 1000
        couplings = chains31[name].couplings
        a = diagonalize(couplings).eigenvectors
        gradient = 2.0 * couplings.couplings * a[:, :-1] * a[:, 1:]
        oracle = eps / np.sqrt(3.0) * np.linalg.norm(gradient, axis=1)
        stats = level_shift_stats(couplings, DisorderModel(eps, nav, SEED))
        assert stats.std[15] == 0.0  # the zero mode is exact at every realization
        nonzero = np.arange(31) != 15
        # the standard error of a spread estimate from R samples is about std / sqrt(2 R)
        np.testing.assert_allclose(stats.std[nonzero], oracle[nonzero], rtol=5.0 / np.sqrt(2.0 * nav))

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
        assert window_curvature((omega, p)) == 0.0

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


def _edge_40_digits(transfer, threshold, guess):
    """Root of |f_N(t)| = sqrt(6 threshold - 2) - 1 near `guess`, by mpmath at 40 digits.

    f_N is summed as sum_k P_k exp(-i omega_k t) over the same double
    (levels, products), so the root tests the edge search, not the pair.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        terms = [(mpmath.mpf(float(w)), mpmath.mpf(float(p))) for w, p in zip(*transfer)]
        a_min = mpmath.sqrt(6 * mpmath.mpf(threshold) - 2) - 1
        return mpmath.findroot(
            lambda t: abs(mpmath.fsum(p * mpmath.expj(-w * t) for w, p in terms)) - a_min,
            mpmath.mpf(guess),
        )


def _peak_40_digits(transfer, guess):
    """Root of d|f_N|^2/dt = 2 Re(conj(f_N) f_N') near `guess` and F there, by mpmath at 40 digits.

    Summed over the same double (levels, products) as `_edge_40_digits`.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        terms = [(mpmath.mpf(float(w)), mpmath.mpf(float(p))) for w, p in zip(*transfer)]

        def amplitude(t):
            return mpmath.fsum(p * mpmath.expj(-w * t) for w, p in terms)

        def slope(t):
            rate = mpmath.fsum(-1j * w * p * mpmath.expj(-w * t) for w, p in terms)
            return mpmath.re(mpmath.conj(amplitude(t)) * rate)

        root = mpmath.findroot(slope, mpmath.mpf(guess))
        a = abs(amplitude(root))
        return root, a / 3 + a**2 / 6 + mpmath.mpf(1) / 2


@pytest.fixture(scope="module")
def boundary_chains():
    """quadratic_boundary at N = 101 and 301: 0.99-windows of 0.35 around t_pst = 7541 and 69751."""
    return {n: design_standard("quadratic_boundary", n) for n in (101, 301)}


@pytest.fixture(scope="module")
def quadratic301():
    """quadratic at N = 301, where the read-out step pi / (8 sqrt(M2)) is 18648 times pi / (8 sigma_max)."""
    return design_standard("quadratic", 301)


#: The five N = 31 chains by family name, and quadratic at N = 301.
FAMILIES_AND_QUADRATIC_301 = [pytest.param(name, 31, id=name) for name in sorted(STANDARD_FAMILIES)] + [
    pytest.param("quadratic", 301, id="quadratic-301")
]


@pytest.fixture(scope="module")
def boundary_rows(boundary_chains):
    """The window row of each boundary chain as the command writes it, by column name."""
    rows = {}
    for n, chain in boundary_chains.items():
        header, row = window_table(chain, 0.99).splitlines()[-2:]
        rows[n] = {name: float(value) for name, value in zip(header.split(","), row.split(","))}
    return rows


class TestWindowWidth:
    def test_two_site_closed_form(self):
        # invert F = s/3 + s^2/6 + 1/2 at the threshold: s0 = sqrt(6 F0 - 2) - 1,
        # then |sin(J t)| >= s0 around the peak has width (pi - 2 asin s0) / J
        J, threshold = 1.1, 0.99
        transfer = end_to_end(CouplingSet([J]))
        s0 = np.sqrt(6.0 * threshold - 2.0) - 1.0
        expected = (np.pi - 2.0 * np.arcsin(s0)) / J
        assert window_width(transfer, np.pi / (2.0 * J), threshold) == pytest.approx(expected, rel=1e-12)

    def test_truncated_at_twice_t_pst(self):
        # |sin t| >= s0 from asin(s0) to pi - asin(s0) > 2.8, so the right edge stops at 2 t_pst
        transfer = end_to_end(CouplingSet([1.0]))
        s0 = np.sqrt(6.0 * 0.55 - 2.0) - 1.0
        assert window_width(transfer, 1.4, 0.55) == pytest.approx(2.8 - np.arcsin(s0), rel=1e-12)

    def test_quadratic_wider_than_linear(self, chains31):
        widths = {}
        for name in ("linear", "quadratic"):
            chain = chains31[name]
            widths[name] = window_width(end_to_end(chain.couplings), chain.t_pst, 0.99)
        assert widths["quadratic"] > widths["linear"]

    def test_nested_thresholds(self, chains31):
        chain = chains31["linear"]
        transfer = end_to_end(chain.couplings)
        w95 = window_width(transfer, chain.t_pst, 0.95)
        w99 = window_width(transfer, chain.t_pst, 0.99)
        w999 = window_width(transfer, chain.t_pst, 0.999)
        assert w999 < w99 < w95

    def test_no_window(self):
        transfer = end_to_end(CouplingSet([1.0]))
        with pytest.raises(NoWindowError):  # |f_N(0.3)| = sin 0.3, far below the threshold
            window_width(transfer, 0.3, 0.99)

    def test_threshold_validation(self, chains31):
        chain = chains31["linear"]
        transfer = end_to_end(chain.couplings)
        with pytest.raises(ValueError):
            window_width(transfer, chain.t_pst, 0.4)

    def test_input_validation(self, chains31):
        chain = chains31["linear"]
        levels, products = end_to_end(chain.couplings)
        with pytest.raises(ValueError, match="positive"):
            window_width((levels, products), -chain.t_pst, 0.99)
        with pytest.raises(ValueError, match="mirrored"):
            window_width((levels, products * (1.0 + 1e-12 * np.arange(levels.size))), chain.t_pst, 0.99)

    @pytest.mark.parametrize("t_pst", [np.inf, -np.inf, np.nan])
    def test_non_finite_t_pst_rejected(self, chains31, t_pst):
        transfer = end_to_end(chains31["linear"].couplings)
        with pytest.raises(ValueError, match="positive and finite"):
            window_width(transfer, t_pst, 0.99)

    @pytest.mark.parametrize("threshold", [0.8, 0.99, 0.999])
    @pytest.mark.parametrize("name,n_sites", FAMILIES_AND_QUADRATIC_301)
    def test_against_40_digit_roots(self, chains31, quadratic301, name, n_sites, threshold):
        chain = quadratic301 if n_sites == 301 else chains31[name]
        transfer = end_to_end(chain.couplings)
        width = window_width(transfer, chain.t_pst, threshold)
        right, left = (_edge_40_digits(transfer, threshold, chain.t_pst + s * width / 2) for s in (1, -1))
        assert width == pytest.approx(float(right - left), rel=1e-12)

    @pytest.mark.parametrize("n_sites,expected", [(101, 0.347508885), (301, 0.347501773)])
    def test_narrow_window_at_large_n(self, boundary_chains, boundary_rows, n_sites, expected):
        chain = boundary_chains[n_sites]
        width = boundary_rows[n_sites]["width"]
        right, left = (_edge_40_digits(end_to_end(chain.couplings), 0.99, chain.t_pst + s * expected / 2) for s in (1, -1))
        assert float(right - left) == pytest.approx(expected, abs=5e-10)
        # the times near t_pst are doubles spaced about 2 u t_pst apart
        assert abs(width - float(right - left)) <= 8 * 2.0**-53 * chain.t_pst

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(sorted(STANDARD_FAMILIES)),
        thresholds=st.lists(st.floats(0.55, 0.999), min_size=2, max_size=2),
    )
    def test_edges_sit_on_the_threshold(self, chains31, name, thresholds):
        low, high = sorted(thresholds)
        assume(high - low >= 1e-6)
        chain = chains31[name]
        transfer = end_to_end(chain.couplings)
        widths = [window_width(transfer, chain.t_pst, threshold) for threshold in (low, high)]
        assume(widths[0] < 2.0 * chain.t_pst)  # not truncated
        for threshold, width in zip((low, high), widths):
            for edge in (chain.t_pst - width / 2, chain.t_pst + width / 2):
                fidelity = averaged_fidelity(abs(transfer_amplitude(transfer, edge)))
                assert fidelity == pytest.approx(threshold, abs=1e-12)
        assert widths[0] > widths[1]


class TestDetectFirstMaximum:
    def test_linear_first_maximum_is_transfer(self, chains31):
        chain = chains31["linear"]
        found = detect_first_maximum(end_to_end(chain.couplings), 1.05 * chain.t_pst)
        assert found.first_max_time == pytest.approx(chain.t_pst, rel=1e-12)
        assert found.first_max_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_center_echo_precedes_transfer(self, chains31):
        chain = chains31["sqrt_center"]
        found = detect_first_maximum(end_to_end(chain.couplings), 1.05 * chain.t_pst)
        assert found.first_max_time < 0.5 * chain.t_pst
        assert found.first_max_fidelity < 0.99

    @pytest.mark.parametrize("name", ["quadratic_boundary", "sqrt_center"])
    def test_maximum_just_above_the_floor(self, chains31, name):
        # the samples beside the echo read below its peak, so they fall under a floor
        # 1e-9 below it; the curvature margin still takes them as candidates
        chain = chains31[name]
        transfer = end_to_end(chain.couplings)
        found = detect_first_maximum(transfer, 1.05 * chain.t_pst)
        again = detect_first_maximum(transfer, 1.05 * chain.t_pst, found.first_max_fidelity - 1e-9)
        assert again == found

    def test_two_site(self):
        J = 0.9
        found = detect_first_maximum(end_to_end(CouplingSet([J])), 2.5 * np.pi / J)
        assert found.first_max_time == pytest.approx(np.pi / (2.0 * J), rel=1e-12)

    def test_no_echo_on_flat_floor(self, chains31):
        # before 0.1 t_pst the excitation has not reached the far end of the linear chain
        chain = chains31["linear"]
        with pytest.raises(NoEchoError):
            detect_first_maximum(end_to_end(chain.couplings), 0.1 * chain.t_pst)

    def test_input_validation(self, chains31):
        chain = chains31["linear"]
        levels, products = end_to_end(chain.couplings)
        for floor in (0.5, 1.0, 0.4):
            with pytest.raises(ValueError, match="min_fidelity"):
                detect_first_maximum((levels, products), chain.t_pst, floor)
        for t_end in (0.0, -chain.t_pst, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive"):
                detect_first_maximum((levels, products), t_end)
        with pytest.raises(ValueError, match="mirrored"):
            detect_first_maximum((levels, products * (1.0 + 1e-12 * np.arange(levels.size))), chain.t_pst)

    @pytest.mark.parametrize("name,n_sites", FAMILIES_AND_QUADRATIC_301)
    def test_against_40_digit_roots(self, chains31, quadratic301, name, n_sites):
        chain = quadratic301 if n_sites == 301 else chains31[name]
        transfer = end_to_end(chain.couplings)
        found = detect_first_maximum(transfer, 1.05 * chain.t_pst)
        root, fidelity = _peak_40_digits(transfer, found.first_max_time)
        assert found.first_max_time == pytest.approx(float(root), rel=1e-13)
        # |f_N| is clipped at 1; at N = 301 the products' own sum_k |P_k| - 1 = 1.1e-13
        # puts the unclipped peak of the same pair at F = 1 + 7.4e-14
        assert found.first_max_fidelity == pytest.approx(min(float(fidelity), 1.0), abs=1e-14)

    @pytest.mark.parametrize("n_sites,time,fidelity", [
        (101, 175.548283568, 0.553261348), (301, 1006.252034329, 0.5504801405),
    ])
    def test_resolved_at_large_n(self, boundary_rows, boundary_chains, n_sites, time, fidelity):
        # a grid of 2000 points per t_pst read 197.97 (F 0.5818) and 1285.76 (F 0.5874)
        row = boundary_rows[n_sites]
        root, reference = _peak_40_digits(end_to_end(boundary_chains[n_sites].couplings), time)
        assert float(root) == pytest.approx(time, abs=1e-9)
        assert float(reference) == pytest.approx(fidelity, abs=1e-9)
        assert row["first_max_time"] == pytest.approx(float(root), rel=1e-13)
        assert row["first_max_fidelity"] == pytest.approx(float(reference), abs=1e-14)

    def test_long_transfer_chain_command(self, tmp_path):
        # boundary alpha = 4 at N = 61: t_pst = 2.9e6, and the first maximum, at 0.0067 t_pst,
        # is 7e-6 above the floor; phases near 4e4 rad leave |f_N| within u sigma_max t = 9e-12
        out = tmp_path / "w.csv"
        argv = ["analyze", "--window", "--family", "boundary", "--alpha", "4", "--n", "61"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        _, columns, data = read_table(out)
        row = dict(zip(columns, data[0]))
        chain = design_chain(61, "boundary", 4.0)
        root, reference = _peak_40_digits(end_to_end(chain.couplings), 19357.6407332)
        assert row["first_max_time"] == pytest.approx(float(root), rel=1e-13)
        assert row["first_max_fidelity"] == pytest.approx(float(reference), abs=1e-11)

    def test_solves_only_candidates_that_can_pass(self, monkeypatch):
        # 396 brackets pass the two-sample margin here; a 65-point sample of each
        # leaves one for `_first_fall`, and each walk sample is evaluated once
        chain = design_chain(61, "boundary", 4.0)
        transfer = end_to_end(chain.couplings)
        calls = {"_first_fall": 0, "_transfer_abs": 0}
        for name in calls:
            def counted(*args, _name=name, _func=getattr(analysis, name), **kwargs):
                calls[_name] += 1
                return _func(*args, **kwargs)
            monkeypatch.setattr(analysis, name, counted)
        detect_first_maximum(transfer, 1.05 * chain.t_pst)
        assert calls["_first_fall"] == 1
        assert calls["_transfer_abs"] < 500


class TestSpeedRatio:
    def test_linear_benchmark_definition(self):
        ref = linear_reference_time(31, 1.0)
        assert ref == pytest.approx(np.pi * 31 / 4.0, rel=1e-12)
        assert speed_ratio(ref, 31, 1.0) == pytest.approx(1.0, rel=1e-12)
        # finite up to the largest J_max, where 4 J_max would overflow
        assert linear_reference_time(11, 1e308) * 1e308 == pytest.approx(np.pi * 11 / 4.0, rel=1e-12)
        assert speed_ratio(1.0, 11, 1e308) / 1e308 == pytest.approx(4.0 / (np.pi * 11), rel=1e-12)

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
        for args in [(np.nan, 31, 1.0), (1.0, 31, np.nan), (1.0, 0, 1.0), (1.0, 31, -1.0)]:
            with pytest.raises(ValueError, match="must be positive"):
                speed_ratio(*args)  # NaN fails `not x > 0` too
