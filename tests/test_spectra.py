import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from pstchain import spectra
from pstchain.errors import DegenerateGapsError, NotCommensurateError
from pstchain.pipeline import STANDARD_FAMILIES
from pstchain.spectra import (
    MAX_SCAN_CANDIDATES,
    PstTiming,
    Spectrum,
    SpectrumSpec,
    commensurate_adjust,
    generate_spectrum,
    freeze,
    max_relative_change,
    pst_time,
)


def spec(n, family, alpha, amplitude=1.0):
    return SpectrumSpec(n_sites=n, family=family, exponent=alpha, amplitude=amplitude)


class TestGenerateSpectrum:
    def test_center_linear_n5(self):
        s = generate_spectrum(spec(5, "center", 1.0))
        np.testing.assert_array_equal(s.values, [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_center_quadratic_n5(self):
        s = generate_spectrum(spec(5, "center", 2.0))
        np.testing.assert_array_equal(s.values, [-4.0, -1.0, 0.0, 1.0, 4.0])

    def test_boundary_quadratic_n5(self):
        # independent evaluation of -sgn(x) * ((3 - |x|)^2 - 9) at x = k - 3
        expected = [
            -np.sign(x) * ((3 - abs(x)) ** 2 - 9.0) for x in range(-2, 3)
        ]
        s = generate_spectrum(spec(5, "boundary", 2.0))
        np.testing.assert_array_equal(s.values, expected)
        np.testing.assert_array_equal(s.values, [-8.0, -5.0, 0.0, 5.0, 8.0])

    @pytest.mark.parametrize("family", ["center", "boundary"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, 2.7])
    @pytest.mark.parametrize("n", [3, 5, 15, 31])
    def test_exact_antisymmetry(self, family, alpha, n):
        s = generate_spectrum(spec(n, family, alpha))
        np.testing.assert_array_equal(s.values, -s.values[::-1])
        assert s.values[n // 2] == 0.0
        assert np.all(np.diff(s.values) > 0)

    def test_boundary_alpha1_equals_linear(self):
        a = generate_spectrum(spec(9, "boundary", 1.0))
        b = generate_spectrum(spec(9, "center", 1.0))
        np.testing.assert_allclose(a.values, b.values, rtol=1e-15)

    def test_even_n_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            spec(6, "center", 1.0)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            spec(5, "center", 0.0)
        with pytest.raises(ValueError, match="exponent"):
            spec(5, "center", -1.0)

    def test_density_ordering_alpha2(self):
        # center family: gaps grow away from the middle; boundary: the reverse
        c = generate_spectrum(spec(31, "center", 2.0)).gaps
        assert c[15] < c[-1]
        b = generate_spectrum(spec(31, "boundary", 2.0)).gaps
        assert b[-1] < b[15]


    @pytest.mark.parametrize("n,alpha", [(31, 18.0), (101, 11.5), (301, 9.0), (1001, 7.0)])
    def test_collapsed_boundary_levels_are_numerical(self, n, alpha):
        # c**alpha - (c - x)**alpha rounds onto itself near the edge; half a
        # unit of alpha lower, the levels are still distinct
        with pytest.raises(DegenerateGapsError, match="coincide"):
            generate_spectrum(spec(n, "boundary", alpha))
        assert np.all(np.diff(generate_spectrum(spec(n, "boundary", alpha - 0.5)).values) > 0)


class TestFreeze:
    def test_fields_become_read_only_copies(self):
        @dataclass(frozen=True)
        class Pair:
            first: object
            second: object

        source = np.array([1.5, 2.5])
        pair = Pair([1, 3], source)
        freeze(pair, "first", "second", dtype=float)
        assert pair.first.dtype == float and pair.second.dtype == float
        assert not pair.first.flags.writeable and not pair.second.flags.writeable
        assert not np.shares_memory(pair.second, source)


class TestSpectrumType:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            Spectrum([0.0, 1.0, 1.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            Spectrum([-1.0, 0.0, 2.0])

    @pytest.mark.parametrize("values", [[-np.inf, 0.0, np.inf], [-1.0, np.nan, 1.0]])
    def test_rejects_non_finite(self, values):
        with pytest.raises(ValueError, match="finite"):
            Spectrum(values)

    def test_rejects_nonzero_center(self):
        with pytest.raises(ValueError):
            Spectrum([-2.0, 1e-14, 2.0])

    def test_two_site_allowed(self):
        s = Spectrum([-1.0, 1.0])
        assert s.n_sites == 2 and s.omega_max == 1.0

    def test_values_are_read_only(self):
        s = Spectrum([-1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestPstTime:
    def test_equidistant(self):
        timing = pst_time(Spectrum([-2.0, -1.0, 0.0, 1.0, 2.0]))
        assert timing.t_pst == pytest.approx(np.pi, rel=1e-15)
        np.testing.assert_array_equal(timing.odd_multipliers, [1, 1, 1, 1])

    def test_equidistant_scaled_by_pi(self):
        timing = pst_time(Spectrum(np.pi * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])))
        assert timing.t_pst == pytest.approx(1.0, rel=1e-12)

    def test_odd_gap_pattern(self):
        # brute-force oracle: every admissible base divides some gap by an odd
        # integer, so enumerate gap/odd for all gaps and take the largest base
        # under which every gap ratio is an odd integer.
        values = np.array([-8.0, -5.0, 0.0, 5.0, 8.0])
        gaps = np.diff(values)
        admissible = []
        for g in gaps:
            for div in range(1, 100, 2):
                base = g / div
                ratios = gaps / base
                nearest = 2 * np.floor(ratios / 2) + 1
                if np.all(np.abs(ratios - nearest) < 1e-9 * ratios):
                    admissible.append(base)
        expected_base = max(admissible)
        assert expected_base == pytest.approx(1.0, rel=1e-12)

        timing = pst_time(Spectrum(values))
        assert timing.t_pst == pytest.approx(np.pi / expected_base, rel=1e-12)
        np.testing.assert_array_equal(timing.odd_multipliers, [3, 5, 5, 3])

    def test_not_commensurate(self):
        with pytest.raises(NotCommensurateError):
            pst_time(Spectrum([-2.5, -1.0, 0.0, 1.0, 2.5]))

    def test_base_is_maximal(self):
        # gaps (3, 9, 9, 3): the base must be 3, not 1
        timing = pst_time(Spectrum([-12.0, -9.0, 0.0, 9.0, 12.0]))
        assert timing.t_pst == pytest.approx(np.pi / 3.0, rel=1e-12)
        np.testing.assert_array_equal(timing.odd_multipliers, [1, 3, 3, 1])

    def test_tolerance_contract(self):
        # a 1e-6 relative detuning is far outside the 1e-9 oddness tolerance
        s = Spectrum([-2.0 - 1e-6, -1.0, 0.0, 1.0, 2.0 + 1e-6])
        with pytest.raises(NotCommensurateError):
            pst_time(s)

    @pytest.mark.parametrize("family", ["center", "boundary"])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("n", [5, 9, 15, 21, 31])
    def test_integer_alpha_commensurate(self, family, alpha, n):
        s = generate_spectrum(spec(n, family, alpha))
        timing = pst_time(s)  # must not raise
        base = np.pi / timing.t_pst
        np.testing.assert_allclose(
            s.gaps / base, timing.odd_multipliers, rtol=1e-12
        )

    def test_multiplier_validation(self):
        with pytest.raises(ValueError, match="odd"):
            PstTiming(t_pst=1.0, odd_multipliers=[1, 2, 1])
        with pytest.raises(ValueError):
            PstTiming(t_pst=-1.0, odd_multipliers=[1])


class TestCommensurateAdjust:
    @pytest.mark.parametrize("family", ["center", "boundary"])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("n", [5, 15, 31])
    def test_identity_on_integer_alpha(self, family, alpha, n):
        s = generate_spectrum(spec(n, family, alpha))
        adjusted, timing = commensurate_adjust(s)
        np.testing.assert_allclose(adjusted.values, s.values, rtol=0, atol=1e-12 * s.omega_max)
        base = np.pi / timing.t_pst
        np.testing.assert_allclose(adjusted.gaps / base, timing.odd_multipliers, rtol=1e-12)

    def test_already_snapped_pattern_kept(self):
        s = Spectrum([-8.0, -5.0, 0.0, 5.0, 8.0])
        adjusted, timing = commensurate_adjust(s)
        np.testing.assert_allclose(adjusted.values, s.values, atol=1e-13)
        assert timing.t_pst == pytest.approx(np.pi, rel=1e-12)

    def test_fractional_alpha_snaps_exactly(self):
        raw = generate_spectrum(spec(31, "center", 0.5))
        with pytest.raises(NotCommensurateError):
            pst_time(raw)
        adjusted, timing = commensurate_adjust(raw)
        base = np.pi / timing.t_pst
        ratios = adjusted.gaps / base
        np.testing.assert_allclose(ratios, timing.odd_multipliers, rtol=1e-12)
        assert np.all(timing.odd_multipliers % 2 == 1)
        assert max_relative_change(raw, adjusted) < 0.05

    def test_adjustment_is_deterministic(self):
        raw = generate_spectrum(spec(31, "center", 0.5))
        a1, t1 = commensurate_adjust(raw)
        a2, t2 = commensurate_adjust(raw)
        np.testing.assert_array_equal(a1.values, a2.values)
        assert t1.t_pst == t2.t_pst

    @pytest.mark.parametrize("alpha", [0.5, 1.7])
    @pytest.mark.parametrize("family", ["center", "boundary"])
    def test_idempotent(self, family, alpha):
        raw = generate_spectrum(spec(31, family, alpha))
        a1, t1 = commensurate_adjust(raw)
        a2, t2 = commensurate_adjust(a1)
        np.testing.assert_allclose(a2.values, a1.values, rtol=0, atol=1e-12 * a1.omega_max)
        assert t2.t_pst == pytest.approx(t1.t_pst, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.3, 2.6])
    def test_output_always_supports_pst(self, alpha):
        raw = generate_spectrum(spec(21, "center", alpha))
        adjusted, _ = commensurate_adjust(raw)
        pst_time(adjusted)  # must not raise

    @pytest.mark.parametrize("trial", range(8))
    def test_random_spectra_adjust_then_resolve(self, trial):
        rng = np.random.default_rng(1000 + trial)
        half = np.sort(rng.uniform(0.2, 5.0, size=9))
        while np.min(np.diff(half)) < 1e-3:
            half = np.sort(rng.uniform(0.2, 5.0, size=9))
        s = Spectrum(np.concatenate([-half[::-1], [0.0], half]))
        adjusted, timing = commensurate_adjust(s)
        base = np.pi / timing.t_pst
        np.testing.assert_allclose(adjusted.gaps / base, timing.odd_multipliers, rtol=1e-10)

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, np.nan])
    def test_search_tolerance_must_be_positive_and_finite(self, tolerance):
        raw = generate_spectrum(spec(31, "center", 0.5))
        with pytest.raises(ValueError, match="positive and finite"):
            commensurate_adjust(raw, tolerance)

    def test_even_spectrum_rejected(self):
        # a commensurate even spectrum: gaps 2, 2, 2 are odd multiples of base 2
        with pytest.raises(ValueError, match="odd number of levels"):
            commensurate_adjust(Spectrum([-3.0, -1.0, 1.0, 3.0]))

    def test_degenerate_gaps_rejected(self):
        # gap ratio 200000 is even, so the scan runs and cannot resolve 1e-5 against 2
        s = Spectrum([-2.00001, -1e-5, 0.0, 1e-5, 2.00001])
        with pytest.raises(DegenerateGapsError):
            commensurate_adjust(s)

    def test_commensurate_spectrum_snapped_whatever_its_gap_ratio(self):
        # gap ratio 199999 is odd: no scan runs, so its resolution does not apply
        s = Spectrum([-2.0, -1e-5, 0.0, 1e-5, 2.0])
        adjusted, timing = commensurate_adjust(s)
        assert timing.odd_multipliers.tolist() == [199999, 1, 1, 199999]
        np.testing.assert_allclose(adjusted.values, s.values, rtol=0, atol=1e-15)


def _one_shot_pst_time(spectrum):
    """(t_pst, multipliers) from the whole divisor table at once, or None."""
    gaps = spectrum.gaps
    g_min = float(gaps.min())
    divisors = np.arange(1, 9999 + 1, 2, dtype=float)
    ratios = gaps[None, :] * (divisors[:, None] / g_min)
    nearest_odd = 2.0 * np.floor(ratios / 2.0) + 1.0
    window = 1e-9 * ratios
    rows = np.nonzero(((np.abs(ratios - nearest_odd) <= window) & (window < 0.5)).all(axis=1))[0]
    if rows.size == 0:
        return None
    return float(np.pi / (g_min / divisors[rows[0]])), nearest_odd[rows[0]].astype(int)


def _one_shot_adjust(spectrum):
    """(t_pst, multipliers, spectrum bytes) of commensurate_adjust, from whole-table scans."""
    found = _one_shot_pst_time(spectrum)
    if found is None:
        gaps = spectrum.gaps
        g_min = float(gaps.min())
        bases = np.linspace(g_min / 3.0, g_min, int(round((2.0 / 3.0) / 1e-4)) + 1)
        ratios = gaps[None, :] / bases[:, None]
        nearest_odd = 2.0 * np.floor(ratios / 2.0) + 1.0
        best = int(np.argmin((((ratios - nearest_odd) / ratios) ** 2).sum(axis=1)))
        spectrum = spectra._snap(nearest_odd[best].astype(int), float(bases[best]))
        found = _one_shot_pst_time(spectrum)
    else:
        t_pst, multipliers = found
        spectrum = spectra._snap(multipliers, np.pi / t_pst)
    t_pst, multipliers = found
    return t_pst, multipliers.tolist(), spectrum.values.tobytes()


class TestBlockedScans:
    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("n", [3, 5, 9, 31, 101, 301])
    @pytest.mark.parametrize("name", sorted(STANDARD_FAMILIES))
    def test_match_one_shot_scans(self, monkeypatch, name, n, block):
        raw = generate_spectrum(spec(n, *STANDARD_FAMILIES[name]))
        expected = _one_shot_adjust(raw)
        monkeypatch.setattr(spectra, "_SCAN_BLOCK", block)
        adjusted, timing = commensurate_adjust(raw)
        assert timing.t_pst == expected[0]
        assert timing.odd_multipliers.tolist() == expected[1]
        assert adjusted.values.tobytes() == expected[2]

    @pytest.mark.parametrize("block", [1, 64, 65, 66])
    def test_answer_in_a_later_block(self, monkeypatch, block):
        # gaps (133, 131, 131, 133)/131 need divisor 131 of the smallest gap,
        # row 65 of the divisor table: the second block at the default 64
        monkeypatch.setattr(spectra, "_SCAN_BLOCK", block)
        timing = pst_time(Spectrum(np.array([-264.0, -131.0, 0.0, 131.0, 264.0]) / 131.0))
        assert timing.t_pst == 131 * np.pi
        assert timing.odd_multipliers.tolist() == [133, 131, 131, 133]

    @pytest.mark.parametrize("later", [False, True])
    def test_score_tie_across_block_edge_keeps_earlier_base(self, later):
        # a copy of the winning candidate placed in another block ties its
        # score bit for bit; the first of the two must win, as with argmin
        gaps = generate_spectrum(spec(31, "center", 0.5)).gaps
        g_min = float(gaps.min())
        bases = np.linspace(g_min / 3.0, g_min, 6667)
        best, multipliers = spectra._best_base(gaps, bases)
        shift = 3 * spectra._SCAN_BLOCK
        assert shift <= best < bases.size - shift
        copy_at = best + shift if later else best - shift
        tied = np.insert(bases, copy_at, bases[best])
        first = min(copy_at, best)
        assert tied[first] == bases[best]
        found, found_multipliers = spectra._best_base(gaps, tied)
        assert found == first
        np.testing.assert_array_equal(found_multipliers, multipliers)

    @pytest.mark.parametrize("name", ["linear", "sqrt_center"])
    def test_scratch_memory_bounded_at_n1001(self, name):
        raw = generate_spectrum(spec(1001, *STANDARD_FAMILIES[name]))
        tracemalloc.start()
        try:
            commensurate_adjust(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("tolerance", [1e-12, 5e-324])
    def test_too_fine_scan_is_rejected(self, tolerance):
        raw = generate_spectrum(spec(31, "center", 0.5))
        with pytest.raises(ValueError, match="candidate bases"):
            commensurate_adjust(raw, tolerance)

    def test_finest_accepted_scan_runs(self):
        raw = generate_spectrum(spec(5, "center", 0.5))
        tolerance = (2.0 / 3.0) / (MAX_SCAN_CANDIDATES - 1)
        adjusted, timing = commensurate_adjust(raw, tolerance)
        pst_time(adjusted)
        with pytest.raises(ValueError, match="candidate bases"):
            commensurate_adjust(raw, tolerance / (1 + 1e-6))
