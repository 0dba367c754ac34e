import numpy as np
import pytest
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


class TestSpectralWeights:
    def test_three_site_uniform(self):
        w = spectral_weights(Spectrum([-np.sqrt(2), 0.0, np.sqrt(2)])).weights
        np.testing.assert_allclose(w, [0.25, 0.5, 0.25], rtol=1e-14)
        # cross-check against the eigenvectors of the uniform 3-site chain
        _, vecs = eigh_tridiagonal(np.zeros(3), np.ones(2))
        np.testing.assert_allclose(np.sort(vecs[0] ** 2), np.sort(w), rtol=1e-12)

    def test_two_site(self):
        w = spectral_weights(Spectrum([-1.0, 1.0])).weights
        np.testing.assert_allclose(w, [0.5, 0.5], rtol=1e-15)

    def test_equidistant_n5(self):
        # direct product evaluation (no logs needed at this size):
        # u_k = 1 / prod_{j != k} |w_k - w_j|, then normalize
        values = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        u = np.empty(5)
        for k in range(5):
            u[k] = 1.0 / np.prod(np.abs(values[k] - np.delete(values, k)))
        expected = u / u.sum()
        w = spectral_weights(Spectrum(values)).weights
        np.testing.assert_allclose(w, expected, rtol=1e-14)
        np.testing.assert_allclose(w, w[::-1], rtol=1e-14)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)

    def test_wide_dynamic_range(self):
        s = generate_spectrum(SpectrumSpec(31, "center", 2.0))
        w = spectral_weights(s).weights
        assert np.all(w > 0) and np.isfinite(w).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_repeated_eigenvalues_unrepresentable(self):
        with pytest.raises(ValueError, match="increasing"):
            Spectrum([-1.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("family,alpha,n,smallest", [
        ("center", 2.0, 501, "-391.9"),
        ("center", 2.0, 1001, "-787.7"),
        ("boundary", 0.5, 1001, "-569.8"),
    ])
    def test_underflow_is_numerical(self, family, alpha, n, smallest):
        # the smallest weight lies below the least subnormal double (1e-324)
        s, _ = commensurate_adjust(generate_spectrum(SpectrumSpec(n, family, alpha)))
        with pytest.raises(ReconstructionUnstableError, match=f"smallest log10 weight {smallest}"):
            spectral_weights(s)

    def test_smallest_representable_weights_pass(self):
        # quadratic at N = 301 reaches log10 w = -233.7, still a normal double
        w = spectral_weights(generate_spectrum(SpectrumSpec(301, "center", 2.0))).weights
        assert 0 < w.min() < 1e-200


class TestReconstructCouplings:
    def test_three_site(self):
        J = reconstruct_couplings(Spectrum([-np.sqrt(2), 0.0, np.sqrt(2)]))
        np.testing.assert_allclose(J.couplings, [1.0, 1.0], rtol=1e-14)

    def test_two_site(self):
        J = reconstruct_couplings(Spectrum([-1.0, 1.0]))
        np.testing.assert_allclose(J.couplings, [1.0], rtol=1e-14)

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
        assert np.max(np.abs(J - J[::-1])) / J.max() < 1e-9

    def test_scale_equivariance(self):
        s = generate_spectrum(SpectrumSpec(15, "center", 2.0))
        J = reconstruct_couplings(s).couplings
        for c in (0.5, 2.0, 10.0):
            Jc = reconstruct_couplings(s.scaled(c)).couplings
            np.testing.assert_allclose(Jc, c * J, rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(STANDARD_FAMILIES))
    def test_diagonal_coefficients_vanish(self, name):
        family, alpha = STANDARD_FAMILIES[name]
        raw = generate_spectrum(SpectrumSpec(31, family, alpha))
        s, _ = commensurate_adjust(raw)
        alphas, _ = _lanczos_coefficients(s.values, spectral_weights(s).weights)
        assert np.max(np.abs(alphas)) < 1e-10 * s.omega_max

    @pytest.mark.parametrize("amplitude", [1e-12, 1e-100])
    def test_design_is_independent_of_the_energy_scale(self, amplitude):
        # the breakdown test weighs beta^2 against omega_max^2, both energies squared
        ref = design_chain(11, "center", 2.0).couplings.couplings
        scaled = design_chain(11, "center", 2.0, amplitude=amplitude).couplings.couplings
        np.testing.assert_allclose(scaled, ref, rtol=1e-12)

    @pytest.mark.parametrize("amplitude", [1e153, 1e300])
    def test_overflowing_recursion_is_numerical(self, amplitude):
        s = generate_spectrum(SpectrumSpec(11, "center", 2.0, amplitude))
        with pytest.raises(ReconstructionUnstableError, match="overflowed"):
            reconstruct_couplings(s)

    def test_quadratic_ends_below_linear(self):
        quad = design_chain(31, "center", 2.0).couplings.couplings
        lin = design_chain(31, "center", 1.0).couplings.couplings
        # both normalized to max 1: the quadratic pattern is weaker at the
        # ends and more concentrated toward the center
        assert quad[0] < lin[0]
        assert quad[-1] < lin[-1]
        assert quad[15] / quad[0] > lin[15] / lin[0]

    def test_breakdown_on_near_degenerate_pair(self):
        e = 5e-9
        s = Spectrum([-2.0 - e, -2.0 + e, 0.0, 2.0 - e, 2.0 + e])
        with pytest.raises(ReconstructionUnstableError):
            reconstruct_couplings(s)

    def test_breakdown_reports_bond_index(self):
        # a zero weight confines the recursion to an (N-1)-dimensional
        # invariant subspace, so the last coefficient must collapse
        omega = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        weights = np.array([0.25, 0.25, 0.0, 0.25, 0.25])
        with pytest.raises(ReconstructionUnstableError) as exc:
            _lanczos_coefficients(omega, weights)
        assert exc.value.site_index == 4


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

    def test_scaled(self):
        J = CouplingSet([1.0, 2.0]).scaled(0.5)
        np.testing.assert_array_equal(J.couplings, [0.5, 1.0])
        assert J.j_max == 1.0
