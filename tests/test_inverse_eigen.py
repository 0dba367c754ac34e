import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from pstchain.errors import ReconstructionUnstableError
from pstchain.inverse_eigen import (
    CouplingSet,
    _lanczos_coefficients,
    reconstruct_couplings,
    spectral_weights,
    verify_reconstruction,
)
from pstchain.pipeline import STANDARD_FAMILIES, design_chain
from pstchain.spectra import Spectrum, SpectrumSpec, commensurate_adjust, generate_spectrum


def _sector_matrix_weights(couplings: np.ndarray) -> np.ndarray:
    """Squared last eigenvector components of the symmetric sector of a mirrored chain."""
    m = couplings.size // 2
    sector = np.append(couplings[: m - 1], np.sqrt(2.0) * couplings[m - 1])
    _, vecs = eigh_tridiagonal(np.zeros(m + 1), sector)
    return vecs[-1] ** 2


class TestSpectralWeights:
    def test_three_site_uniform(self):
        lam, z2 = spectral_weights(Spectrum([-np.sqrt(2), 0.0, np.sqrt(2)]))
        np.testing.assert_array_equal(lam, [-np.sqrt(2), np.sqrt(2)])
        np.testing.assert_allclose(z2, [0.5, 0.5], rtol=1e-15)
        # cross-check against the eigenvectors of the uniform chain's sector
        np.testing.assert_allclose(_sector_matrix_weights(np.ones(2)), z2, rtol=1e-14)

    def test_two_site(self):
        # the two-sector inverse splits N = 2m + 1 levels; an even count has no centre
        with pytest.raises(ValueError, match="odd number of levels"):
            spectral_weights(Spectrum([-1.0, 1.0]))

    def test_equidistant_n5(self):
        # direct product evaluation: lambda = (-2, 0, 2), mu = (-1, 1),
        # z_k^2 = prod_j (lambda_k - mu_j) / prod_{j != k} (lambda_k - lambda_j)
        lam = np.array([-2.0, 0.0, 2.0])
        mu = np.array([-1.0, 1.0])
        u = np.array([
            np.prod(lam[k] - mu) / np.prod(lam[k] - np.delete(lam, k)) for k in range(3)
        ])
        _, z2 = spectral_weights(Spectrum([-2.0, -1.0, 0.0, 1.0, 2.0]))
        np.testing.assert_allclose(z2, u / u.sum(), rtol=1e-15)
        np.testing.assert_allclose(z2, [0.375, 0.25, 0.375], rtol=1e-15)

    @pytest.mark.parametrize("name", sorted(STANDARD_FAMILIES))
    def test_match_the_designed_sector(self, name, chains31):
        _, z2 = spectral_weights(chains31[name].spectrum)
        expected = _sector_matrix_weights(chains31[name].couplings.couplings)
        np.testing.assert_allclose(z2, expected, rtol=1e-10)

    def test_wide_dynamic_range(self):
        s = generate_spectrum(SpectrumSpec(31, "center", 2.0))
        _, z2 = spectral_weights(s)
        assert np.all(z2 > 0) and np.isfinite(z2).all()
        assert z2.sum() == pytest.approx(1.0, abs=1e-15)

    def test_underflowing_weight_is_numerical(self):
        # lambda = (-a, 0, a), mu = (-b, b): z^2 of the zero level is (b / a)^2 = 1e-400,
        # below the least subnormal double
        a, b = 1e100, 1e-100
        with pytest.raises(ReconstructionUnstableError, match="underflows to zero"):
            spectral_weights(Spectrum([-a, -b, 0.0, b, a]))

    def test_repeated_eigenvalues_unrepresentable(self):
        with pytest.raises(ValueError, match="increasing"):
            Spectrum([-1.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("name", ["quadratic", "sqrt_boundary"])
    def test_far_from_underflow_at_1001(self, name, chains1001):
        # the full-chain weights reach log10 -787.7 and -569.8 here
        _, z2 = spectral_weights(chains1001[name].spectrum)
        assert np.log10(z2.min()) > -7


class TestReconstructCouplings:
    def test_three_site(self):
        J = reconstruct_couplings(Spectrum([-np.sqrt(2), 0.0, np.sqrt(2)]))
        np.testing.assert_allclose(J.couplings, [1.0, 1.0], rtol=1e-14)

    def test_two_site(self):
        with pytest.raises(ValueError, match="odd number of levels"):
            reconstruct_couplings(Spectrum([-1.0, 1.0]))

    def test_linear_spectrum_known_closed_form(self):
        # the equidistant chain has J_i proportional to sqrt(i (N - i));
        # confirm the candidate first by forward diagonalization
        n = 31
        i = np.arange(1, n, dtype=float)
        candidate = 0.5 * np.sqrt(i * (n - i))
        vals = eigvalsh_tridiagonal(np.zeros(n), candidate)
        np.testing.assert_allclose(np.diff(vals), np.ones(n - 1), rtol=1e-12)

        s = generate_spectrum(SpectrumSpec(n, "center", 1.0))
        J = reconstruct_couplings(s).couplings
        np.testing.assert_allclose(J, candidate, rtol=1e-8)

    @pytest.mark.parametrize("name", sorted(STANDARD_FAMILIES))
    @pytest.mark.parametrize("n", [5, 15, 31])
    def test_roundtrip_all_families(self, name, n):
        family, alpha = STANDARD_FAMILIES[name]
        raw = generate_spectrum(SpectrumSpec(n, family, alpha))
        s, _ = commensurate_adjust(raw)
        J = reconstruct_couplings(s)
        assert verify_reconstruction(J, s) < 1e-9

    @pytest.mark.parametrize("name", sorted(STANDARD_FAMILIES))
    def test_mirror_symmetry(self, name, chains31):
        J = chains31[name].couplings.couplings
        np.testing.assert_array_equal(J, J[::-1])

    def test_scale_equivariance(self):
        s = generate_spectrum(SpectrumSpec(15, "center", 2.0))
        J = reconstruct_couplings(s).couplings
        for c in (0.5, 2.0, 10.0):
            Jc = reconstruct_couplings(Spectrum(s.values * c)).couplings
            np.testing.assert_allclose(Jc, c * J, rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(STANDARD_FAMILIES))
    def test_diagonal_coefficients_vanish(self, name):
        family, alpha = STANDARD_FAMILIES[name]
        raw = generate_spectrum(SpectrumSpec(31, family, alpha))
        s, _ = commensurate_adjust(raw)
        alphas, _ = _lanczos_coefficients(*spectral_weights(s))
        assert np.max(np.abs(alphas)) < 1e-10 * s.omega_max

    @pytest.mark.parametrize("amplitude", [1e-300, 1e-170, 1e-100, 1e-12, 1e153, 1e300, 5e306, 7e306])
    def test_design_is_independent_of_the_energy_scale(self, amplitude):
        # the sector weights and the recursion run on levels scaled by a power of two,
        # so no level difference and no beta^2 leaves the float range at any amplitude
        # whose spectrum is finite (omega_max = 1.75e308 at 7e306)
        ref = design_chain(11, "center", 2.0).couplings.couplings
        scaled = design_chain(11, "center", 2.0, amplitude=amplitude).couplings.couplings
        np.testing.assert_allclose(scaled, ref, rtol=1e-12)

    def test_quadratic_ends_below_linear(self):
        quad = design_chain(31, "center", 2.0).couplings.couplings
        lin = design_chain(31, "center", 1.0).couplings.couplings
        # both normalized to max 1: the quadratic pattern is weaker at the
        # ends and more concentrated toward the center
        assert quad[0] < lin[0]
        assert quad[-1] < lin[-1]
        assert quad[15] / quad[0] > lin[15] / lin[0]

    def test_near_degenerate_pair_designs(self):
        e = 5e-9
        s = Spectrum([-2.0 - e, -2.0 + e, 0.0, 2.0 - e, 2.0 + e])
        J = reconstruct_couplings(s)
        centre = 2e-4 / np.sqrt(2)
        np.testing.assert_allclose(J.couplings, [2.0, centre, centre, 2.0], rtol=1e-7)
        assert verify_reconstruction(J, s) < 1e-15

    def test_breakdown_on_near_degenerate_pair(self):
        # beta^2 / omega_max^2 = 2e = 2e-14 at the centre bond, below BREAKDOWN_TOLERANCE
        e = 1e-14
        s = Spectrum([-2.0 - e, -2.0 + e, 0.0, 2.0 - e, 2.0 + e])
        with pytest.raises(ReconstructionUnstableError, match="collapsed at bond 2 ") as exc:
            reconstruct_couplings(s)
        assert exc.value.site_index == 2

    def test_breakdown_reports_bond_index(self):
        # a zero weight confines the recursion to a 4-dimensional invariant
        # subspace, so its last step, the end bond 1 of a 9-site chain, collapses
        omega = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        weights = np.array([0.25, 0.25, 0.0, 0.25, 0.25])
        with pytest.raises(ReconstructionUnstableError, match="collapsed at bond 1 ") as exc:
            _lanczos_coefficients(omega, weights)
        assert exc.value.site_index == 1


class TestVerifyReconstruction:
    def test_exact_roundtrip_small(self):
        s = generate_spectrum(SpectrumSpec(5, "center", 1.0))
        J = reconstruct_couplings(s)
        assert verify_reconstruction(J, s) < 1e-12

    def test_uniform_three_site(self):
        J = CouplingSet([1.0, 1.0])
        s = Spectrum([-np.sqrt(2), 0.0, np.sqrt(2)])
        assert verify_reconstruction(J, s) < 1e-14

    def test_perturbation_moves_eigenvalues(self):
        s = generate_spectrum(SpectrumSpec(15, "center", 1.0))
        J = reconstruct_couplings(s)
        bumped = CouplingSet(J.couplings * 1.1)
        assert verify_reconstruction(bumped, s) > 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent"):
            verify_reconstruction(CouplingSet([1.0]), Spectrum([-1.0, 0.0, 1.0]))


class TestCouplingSet:
    def test_positive_required(self):
        with pytest.raises(ValueError, match="positive"):
            CouplingSet([1.0, -1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finite_required(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CouplingSet([bad, 1.0])

    def test_largest_coupling_keeps_finite_levels(self):
        # halving before the symmetrization keeps +-J finite; 1e308 - (-1e308) overflows
        np.testing.assert_array_equal(CouplingSet([1e308]).eigenvalues(), [-1e308, 1e308])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n_sites=st.integers(2, 301),
        linear=st.booleans(),
        eps=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**63),
    )
    def test_eigenvalues_are_exactly_mirrored(self, n_sites, linear, eps, seed):
        # uniform or closed-form linear couplings under disorder up to 90%, odd and even N
        i = np.arange(1, n_sites, dtype=float)
        base = np.sqrt(i * (n_sites - i)) if linear else np.ones(n_sites - 1)
        couplings = base * (1.0 + np.random.default_rng(seed).uniform(-eps, eps, n_sites - 1))
        levels = CouplingSet(couplings).eigenvalues()
        np.testing.assert_array_equal(levels, -levels[::-1])
        if n_sites % 2:
            assert levels[n_sites // 2] == 0.0
        # the symmetrization removes the symmetric part of the solver's error, which
        # grows with N (up to about N u max|level| here), and never costs accuracy:
        # bisection is the more accurate reference
        u_scale = 0.5 * np.finfo(float).eps * np.abs(levels).max()
        raw = eigvalsh_tridiagonal(np.zeros(n_sites), couplings)
        bisection = eigvalsh_tridiagonal(np.zeros(n_sites), couplings, lapack_driver="stebz")
        assert np.abs(levels - raw).max() <= 2 * n_sites * u_scale
        assert np.abs(levels - bisection).max() <= np.abs(raw - bisection).max() + 2 * u_scale
