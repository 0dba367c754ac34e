import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import logsumexp

from pstchain.disorder import DisorderModel, perturb_couplings
from pstchain.dynamics import (
    ORTHONORMALITY_TOL,
    PHASE_BLOCK,
    EigenSystem,
    averaged_fidelity,
    chain_spectrum,
    diagonalize,
    end_to_end,
    fidelity_trace,
    site_amplitudes,
    transfer_amplitude,
)
from pstchain.errors import ProductIdentityError
from pstchain.inverse_eigen import CouplingSet
from pstchain.pipeline import STANDARD_FAMILIES, design_standard
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


@functools.lru_cache(maxsize=None)
def _designed(name, n_sites):
    return design_standard(name, n_sites).couplings


def _perturbed(couplings, eps, seed):
    return perturb_couplings(couplings, DisorderModel(epsilon=eps, n_realizations=1, base_seed=seed), 0)


def _assert_matches_eigenvectors(couplings):
    levels, products = end_to_end(couplings)
    eig = diagonalize(couplings)
    solved = couplings.eigenvalues()
    np.testing.assert_array_equal(levels, 0.5 * (solved - solved[::-1]))
    np.testing.assert_array_equal(products[::-1], (-1) ** (levels.size - 1) * products)
    np.testing.assert_allclose(products, eig.end_to_end_products, rtol=0, atol=1e-12)
    h = np.diag(couplings.couplings, 1)
    values, vectors = np.linalg.eigh(h + h.T)
    np.testing.assert_allclose(levels, values, rtol=0, atol=1e-12 * np.abs(values).max())
    np.testing.assert_allclose(products, vectors[0] * vectors[-1], rtol=0, atol=1e-12)
    assert abs(products.sum()) <= ORTHONORMALITY_TOL


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_STRENGTH = st.floats(0.0, 0.3)
_SEED = st.integers(0, 2**63)


class TestEndToEnd:
    @_PROPERTY
    @given(name=st.sampled_from(sorted(STANDARD_FAMILIES)), half=st.integers(1, 150), eps=_STRENGTH, seed=_SEED)
    def test_designed_chains_match_eigenvectors(self, name, half, eps, seed):
        _assert_matches_eigenvectors(_perturbed(_designed(name, 2 * half + 1), eps, seed))

    @_PROPERTY
    @given(n_sites=st.integers(2, 301), eps=_STRENGTH, seed=_SEED)
    def test_uniform_chains_of_any_length_match_eigenvectors(self, n_sites, eps, seed):
        # even lengths too, which no standard family has
        _assert_matches_eigenvectors(_perturbed(CouplingSet(np.ones(n_sites - 1)), eps, seed))

    def test_two_site_closed_form(self):
        levels, products = end_to_end(CouplingSet([0.6]))
        np.testing.assert_array_equal(levels, [-0.6, 0.6])
        np.testing.assert_allclose(products, [-0.5, 0.5], rtol=0, atol=1e-16)

    def test_returns_read_only_arrays(self, chains31):
        for arr in end_to_end(chains31["linear"].couplings):
            assert not arr.flags.writeable

    def test_coinciding_computed_levels_raise(self):
        # two dimers joined by 1e-300: the solver returns -1, -1, 1, 1
        with pytest.raises(ProductIdentityError, match="coincide"):
            end_to_end(CouplingSet([1.0, 1e-300, 1.0]))

    @pytest.mark.parametrize("n_sites", [2, 31, 301])
    def test_forced_coinciding_levels_raise(self, monkeypatch, n_sites):
        solve = CouplingSet.eigenvalues
        monkeypatch.setattr(CouplingSet, "eigenvalues", lambda self: np.sort(np.r_[solve(self)[1:], solve(self)[1]]))
        with pytest.raises(ProductIdentityError, match="coincide"):
            end_to_end(CouplingSet(np.ones(n_sites - 1)))

    def test_unresolvable_levels_raise(self):
        # two dimers joined by 1e-13: the levels +-1 +- 5e-14 pass both
        # completeness checks with products off by 1e-3, so the error
        # estimate (about 2e-3) must stop them
        with pytest.raises(ProductIdentityError, match="too close to resolve"):
            end_to_end(CouplingSet([1.0, 1e-13, 1.0]))

    def test_levels_crowding_zero_energy_are_not_refused(self):
        # 90% disorder on 1001 sites puts +-sigma_1 within 3e-14 of level 0.
        # Counting the gaps to the partner and to level 0 at u omega_max put
        # this chain at 9e-6 and refused it, but its products are accurate:
        # P_0 is checked against the closed-form zero mode, whose odd-site
        # amplitudes obey a_{2i+1} = -(J_{2i-1} / J_{2i}) a_{2i-1}
        chain = _perturbed(_designed("linear", 1001), 0.9, 198)
        levels, products = end_to_end(chain)
        assert 0 < levels[501] < 1e-13
        j = chain.couplings
        log_a = np.concatenate([[0.0], np.cumsum(np.log(j[0::2]) - np.log(j[1::2]))])
        p0 = np.exp(log_a[-1] - logsumexp(2.0 * log_a))  # a_1 a_N, sign (-1)^500
        assert abs(products[500] - p0) <= 1e-8

    @pytest.mark.parametrize("shrink", [1e-6, 1e-3])
    def test_compressed_levels_fail_the_checks(self, monkeypatch, chains31, shrink):
        # levels scaled by s < 1 scale every product by s^-(N-1), so their
        # moduli sum past 1
        solve = CouplingSet.eigenvalues
        monkeypatch.setattr(CouplingSet, "eigenvalues", lambda self: solve(self) * (1 - shrink))
        with pytest.raises(ProductIdentityError, match="completeness"):
            end_to_end(chains31["quadratic"].couplings)


def _reference_40_digits(couplings):
    """Ascending levels and a_{k,1} a_{k,N} from mpmath.eigsy at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    n = couplings.n_sites
    with mpmath.workdps(40):
        h = mpmath.zeros(n, n)
        for i, j in enumerate(couplings.couplings):
            h[i, i + 1] = h[i + 1, i] = mpmath.mpf(float(j))
        values, vectors = mpmath.eigsy(h)
        order = sorted(range(n), key=lambda k: values[k])
        levels = np.array([float(values[k]) for k in order])
        products = np.array([float(vectors[0, k] * vectors[n - 1, k]) for k in order])
    return levels, products


_ACCURACY_CASES = [(name, 31, 0.0) for name in sorted(STANDARD_FAMILIES)] + [
    ("uniform", 30, 0.1), ("quadratic", 31, 0.1),
]


@pytest.mark.parametrize("name,n_sites,eps", _ACCURACY_CASES)
def test_accuracy_against_40_digits(name, n_sites, eps):
    couplings = CouplingSet(np.ones(n_sites - 1)) if name == "uniform" else _designed(name, n_sites)
    couplings = _perturbed(couplings, eps, SEED)
    ref_levels, ref_products = _reference_40_digits(couplings)
    levels, products = end_to_end(couplings)
    assert np.max(np.abs(levels - ref_levels)) <= 2e-15 * np.abs(ref_levels).max()
    assert np.max(np.abs(products - ref_products)) <= 5e-15


class TestTransferAmplitude:
    def test_zero_time(self, chains31):
        for chain in chains31.values():
            transfer = end_to_end(chain.couplings)
            assert abs(transfer_amplitude(transfer, 0.0)) < 1e-12

    def test_two_site_rabi(self):
        J = 0.7
        transfer = end_to_end(CouplingSet([J]))
        for t in np.linspace(0.0, 9.0, 40):
            assert abs(transfer_amplitude(transfer, t)) == pytest.approx(
                abs(np.sin(J * t)), abs=1e-13
            )

    def test_pst_at_transfer_time(self, chains31):
        for chain in chains31.values():
            transfer = end_to_end(chain.couplings)
            assert abs(transfer_amplitude(transfer, chain.t_pst)) == pytest.approx(1.0, abs=1e-9)

    def test_negative_time_rejected(self, chains31):
        transfer = end_to_end(chains31["linear"].couplings)
        with pytest.raises(ValueError):
            transfer_amplitude(transfer, -0.1)

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
        transfer = end_to_end(CouplingSet([J]))
        tr = fidelity_trace(transfer, 0.0, 5.0, 501)
        expected = np.abs(np.sin(J * tr.times)) / 3 + np.sin(J * tr.times) ** 2 / 6 + 0.5
        np.testing.assert_allclose(tr.fidelity, expected, atol=1e-12)

    def test_linear_chain_periodic_return(self, chains31):
        chain = chains31["linear"]
        transfer = end_to_end(chain.couplings)
        tr = fidelity_trace(transfer, 0.0, 2.0 * chain.t_pst, 2001)
        assert tr.fidelity[1000] == pytest.approx(1.0, abs=1e-9)  # grid point at t_pst
        # strict periodicity: F(2 t_pst - t) traces the return of F(t)
        np.testing.assert_allclose(tr.fidelity, tr.fidelity[::-1], atol=1e-8)

    def test_periodicity_two_periods(self, chains31):
        chain = chains31["quadratic"]
        transfer = end_to_end(chain.couplings)
        a = fidelity_trace(transfer, 0.0, 0.5 * chain.t_pst, 800)
        b = fidelity_trace(
            transfer, 2.0 * chain.t_pst, 2.5 * chain.t_pst, 800
        )
        np.testing.assert_allclose(a.fidelity, b.fidelity, atol=1e-8)

    def test_quadratic_no_early_maximum(self, chains31):
        chain = chains31["quadratic"]
        transfer = end_to_end(chain.couplings)
        tr = fidelity_trace(transfer, 0.0, chain.t_pst, 4001)
        early = tr.fidelity[: int(0.95 * 4001)]
        assert early.max() < 1.0 - 1e-4
        assert tr.fidelity[-1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n_points", [2 * PHASE_BLOCK + 1, 3 * PHASE_BLOCK + 517])
    def test_blocked_phase_sum_matches_one_shot(self, chains31, n_points):
        # three and four blocks, the last of 2 * PHASE_BLOCK + 1 points a single row
        chain = chains31["sqrt_center"]
        transfer = end_to_end(chain.couplings)
        tr = fidelity_trace(transfer, 0.0, 2.5 * chain.t_pst, n_points)
        levels, products = transfer
        # 31 sites: f_N = P_0 + 2 sum_k P_k cos(sigma_k t) over the 15 positive levels
        amp = np.einsum("tk,k->t", np.cos(np.outer(tr.times, levels[16:])), 2.0 * products[16:]) + products[15]
        amp = np.minimum(np.abs(amp), 1.0)
        np.testing.assert_array_equal(tr.amplitude_abs, amp)
        np.testing.assert_array_equal(tr.fidelity, averaged_fidelity(amp))

    def test_rejects_a_pair_that_is_not_mirrored(self, chains31):
        levels, products = end_to_end(chains31["linear"].couplings)
        skew = np.r_[1.0 + 1e-15, np.ones(30)]
        for pair in [(levels * skew, products), (levels, products * skew)]:
            with pytest.raises(ValueError, match="mirrored"):
                fidelity_trace(pair, 0.0, 1.0, 10)

    def test_grid_validation(self, chains31):
        transfer = end_to_end(chains31["linear"].couplings)
        with pytest.raises(ValueError):
            fidelity_trace(transfer, 1.0, 0.5, 100)
        with pytest.raises(ValueError):
            fidelity_trace(transfer, 0.0, 1.0, 1)


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
