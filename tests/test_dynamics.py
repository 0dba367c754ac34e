import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from pstchain.disorder import DisorderModel, perturb_couplings
from pstchain.dynamics import (
    PHASE_BLOCK,
    EigenSystem,
    averaged_fidelity,
    chain_spectrum,
    diagonalize,
    fidelity_trace,
    site_amplitudes,
    transfer_amplitude,
)
from pstchain.inverse_eigen import CouplingSet
from pstchain.pipeline import design_standard
from pstchain.spectra import SpectrumSpec, generate_spectrum

from conftest import SEED


class TestDiagonalize:
    def test_two_site(self):
        eig = diagonalize(CouplingSet([1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-15)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(eig.eigenvectors, [[s, -s], [s, s]], atol=1e-15)

    def test_three_site(self):
        eig = diagonalize(CouplingSet([1.0, 1.0]))
        np.testing.assert_allclose(
            eig.eigenvalues, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-14
        )

    def test_sign_convention(self):
        eig = diagonalize(CouplingSet(np.linspace(0.5, 1.5, 10)))
        assert np.all(eig.eigenvectors[:, 0] > 0)

    def test_sqrt_profile_gives_equidistant_spectrum(self):
        n = 31
        i = np.arange(1, n, dtype=float)
        eig = diagonalize(CouplingSet(0.5 * np.sqrt(i * (n - i))))
        target = generate_spectrum(SpectrumSpec(n, "center", 1.0))
        np.testing.assert_allclose(eig.eigenvalues, target.values, atol=1e-12)

    def test_zero_mode_for_odd_n(self):
        eig = diagonalize(CouplingSet(np.linspace(1.0, 2.0, 10)))  # 11 sites
        scale = np.abs(eig.eigenvalues).max()
        near_zero = np.abs(eig.eigenvalues) < 1e-13 * scale
        assert near_zero.sum() == 1

    def test_orthonormality_validated(self):
        with pytest.raises(ValueError, match="orthonormal"):
            EigenSystem(eigenvalues=[0.0, 1.0], eigenvectors=[[1.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize("scale,ok", [(1 + 1e-6, False), (1 + 1e-13, True)])
    def test_diagonal_only_defect(self, chains31, scale, ok):
        # scaling one row keeps every row orthogonal, so only the diagonal of
        # A A^T - I shows the defect
        eig = diagonalize(chains31["quadratic"].couplings)
        vecs = eig.eigenvectors.copy()
        vecs[7] *= scale
        if ok:
            EigenSystem(eigenvalues=eig.eigenvalues, eigenvectors=vecs)
        else:
            with pytest.raises(ValueError, match="orthonormal"):
                EigenSystem(eigenvalues=eig.eigenvalues, eigenvectors=vecs)

    def test_signs_flipped_from_solver_output(self):
        couplings = perturb_couplings(
            CouplingSet(np.linspace(0.5, 1.5, 30)),
            DisorderModel(epsilon=0.1, n_realizations=1, base_seed=SEED), 0,
        )
        vals, vecs = eigh_tridiagonal(np.zeros(31), couplings.couplings)
        expected = vecs.T * np.where(vecs[0] < 0, -1.0, 1.0)[:, None]
        eig = diagonalize(couplings)
        assert np.all(eig.eigenvectors[:, 0] > 0)
        np.testing.assert_array_equal(eig.eigenvalues, vals)
        np.testing.assert_array_equal(eig.eigenvectors, expected)

    def test_returns_read_only_unaliased_arrays(self, chains31):
        couplings = chains31["sqrt_center"].couplings
        eig = diagonalize(couplings)
        other = diagonalize(couplings)
        for arr in (eig.eigenvalues, eig.eigenvectors):
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, couplings.couplings)
            assert not np.shares_memory(arr, other.eigenvalues)
            assert not np.shares_memory(arr, other.eigenvectors)


    def test_peak_memory_holds_two_matrices_at_n301(self):
        # the solver's output and either the Gram check or the private copy,
        # never all three at once
        couplings = design_standard("linear", 301).couplings
        tracemalloc.start()
        try:
            diagonalize(couplings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 301**2 * 8


class TestTransferAmplitude:
    def test_zero_time(self, chains31):
        for chain in chains31.values():
            eig = diagonalize(chain.couplings)
            assert abs(transfer_amplitude(eig, 0.0)) < 1e-12

    def test_two_site_rabi(self):
        J = 0.7
        eig = diagonalize(CouplingSet([J]))
        for t in np.linspace(0.0, 9.0, 40):
            assert abs(transfer_amplitude(eig, t)) == pytest.approx(
                abs(np.sin(J * t)), abs=1e-13
            )

    def test_pst_at_transfer_time(self, chains31):
        for chain in chains31.values():
            eig = diagonalize(chain.couplings)
            assert abs(transfer_amplitude(eig, chain.t_pst)) == pytest.approx(1.0, abs=1e-9)

    def test_negative_time_rejected(self, chains31):
        eig = diagonalize(chains31["linear"].couplings)
        with pytest.raises(ValueError):
            transfer_amplitude(eig, -0.1)

    def test_unitarity_over_sites(self, chains31):
        eig = diagonalize(chains31["quadratic"].couplings)
        for t in np.linspace(0.0, 2.0 * chains31["quadratic"].t_pst, 17):
            f = site_amplitudes(eig, t)
            assert abs(np.sum(np.abs(f) ** 2) - 1.0) < 1e-10


class TestAveragedFidelity:
    def test_reference_points(self):
        assert averaged_fidelity(1.0) == pytest.approx(1.0, abs=1e-15)
        assert averaged_fidelity(0.0) == pytest.approx(0.5, abs=1e-15)
        assert averaged_fidelity(0.5) == pytest.approx(0.5 / 3 + 0.25 / 6 + 0.5, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            averaged_fidelity(1.5)
        with pytest.raises(ValueError):
            averaged_fidelity(-0.2)

    def test_vectorized(self):
        a = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(
            averaged_fidelity(a), [0.5, 0.5 / 3 + 0.25 / 6 + 0.5, 1.0], atol=1e-15
        )


class TestFidelityTrace:
    def test_two_site_closed_form(self):
        J = 1.3
        eig = diagonalize(CouplingSet([J]))
        tr = fidelity_trace(eig, 0.0, 5.0, 501)
        expected = np.abs(np.sin(J * tr.times)) / 3 + np.sin(J * tr.times) ** 2 / 6 + 0.5
        np.testing.assert_allclose(tr.fidelity, expected, atol=1e-12)

    def test_linear_chain_periodic_return(self, chains31):
        chain = chains31["linear"]
        eig = diagonalize(chain.couplings)
        tr = fidelity_trace(eig, 0.0, 2.0 * chain.t_pst, 2001)
        assert tr.fidelity[1000] == pytest.approx(1.0, abs=1e-9)  # grid point at t_pst
        # strict periodicity: F(2 t_pst - t) traces the return of F(t)
        np.testing.assert_allclose(tr.fidelity, tr.fidelity[::-1], atol=1e-8)

    def test_periodicity_two_periods(self, chains31):
        chain = chains31["quadratic"]
        eig = diagonalize(chain.couplings)
        a = fidelity_trace(eig, 0.0, 0.5 * chain.t_pst, 800)
        b = fidelity_trace(
            eig, 2.0 * chain.t_pst, 2.5 * chain.t_pst, 800
        )
        np.testing.assert_allclose(a.fidelity, b.fidelity, atol=1e-8)

    def test_quadratic_no_early_maximum(self, chains31):
        chain = chains31["quadratic"]
        eig = diagonalize(chain.couplings)
        tr = fidelity_trace(eig, 0.0, chain.t_pst, 4001)
        early = tr.fidelity[: int(0.95 * 4001)]
        assert early.max() < 1.0 - 1e-4
        assert tr.fidelity[-1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n_points", [2 * PHASE_BLOCK + 1, 3 * PHASE_BLOCK + 517])
    def test_blocked_phase_sum_matches_one_shot(self, chains31, n_points):
        # three and four blocks; 2 * PHASE_BLOCK + 1 would leave a one-row
        # block under fixed-size blocking, whose sum differs in the last bits
        chain = chains31["sqrt_center"]
        eig = diagonalize(chain.couplings)
        tr = fidelity_trace(eig, 0.0, 2.5 * chain.t_pst, n_points)
        phases = np.exp(-1j * np.outer(tr.times, eig.eigenvalues))
        amp = np.minimum(np.abs(phases @ eig.end_to_end_products), 1.0)
        np.testing.assert_array_equal(tr.amplitude_abs, amp)
        np.testing.assert_array_equal(tr.fidelity, averaged_fidelity(amp))

    def test_grid_validation(self, chains31):
        eig = diagonalize(chains31["linear"].couplings)
        with pytest.raises(ValueError):
            fidelity_trace(eig, 1.0, 0.5, 100)
        with pytest.raises(ValueError):
            fidelity_trace(eig, 0.0, 1.0, 1)


class TestMirrorSymmetry:
    def test_end_components_match(self, chains31):
        for chain in chains31.values():
            eig = diagonalize(chain.couplings)
            first = np.abs(eig.eigenvectors[:, 0])
            last = np.abs(eig.eigenvectors[:, -1])
            assert np.max(np.abs(first - last)) < 1e-10

    def test_end_product_signs_alternate(self, chains31):
        eig = diagonalize(chains31["linear"].couplings)
        signs = np.sign(eig.end_to_end_products)
        expected = signs[0] * (-1.0) ** np.arange(eig.n_sites)
        np.testing.assert_array_equal(signs, expected)

    def test_disorder_breaks_spatial_but_not_spectral_symmetry(self, chains31):
        chain = chains31["linear"]
        model = DisorderModel(epsilon=0.05, n_realizations=1, base_seed=SEED)
        eig = diagonalize(perturb_couplings(chain.couplings, model, 0))
        first = np.abs(eig.eigenvectors[:, 0])
        last = np.abs(eig.eigenvectors[:, -1])
        assert np.max(np.abs(first - last)) > 1e-3
        vals = eig.eigenvalues
        assert np.max(np.abs(vals + vals[::-1])) < 1e-10 * np.abs(vals).max()


class TestChainSpectrum:
    def test_exact_antisymmetry_and_zero(self, chains31):
        s = chain_spectrum(chains31["quadratic"].couplings)
        assert s.values[15] == 0.0
        np.testing.assert_array_equal(s.values, -s.values[::-1])

    def test_matches_diagonalize(self, chains31):
        chain = chains31["linear"]
        s = chain_spectrum(chain.couplings)
        eig = diagonalize(chain.couplings)
        np.testing.assert_allclose(s.values, eig.eigenvalues, atol=1e-12)
