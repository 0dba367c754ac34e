import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from pstchain import disorder, spectra
from pstchain.cli import sweep_table
from pstchain.disorder import (
    DisorderModel,
    EnsembleResult,
    echo_decay,
    echo_times,
    perturb_couplings,
    realizations,
    run_ensemble,
)
from pstchain.dynamics import diagonalize, end_to_end, fidelity_trace, averaged_fidelity
from pstchain.errors import NotCommensurateError
from pstchain.inverse_eigen import CouplingSet
from pstchain.pipeline import STANDARD_FAMILIES
from pstchain.spectra import Spectrum, pst_time

from conftest import SEED
from oracles import end_products, transfer_amplitude


def model(eps=0.01, nav=10, seed=SEED):
    return DisorderModel(epsilon=eps, n_realizations=nav, base_seed=seed)


class TestDisorderModel:
    def test_validation(self):
        assert DisorderModel(epsilon=np.nextafter(1.0, 0.0), n_realizations=10, base_seed=1)
        for eps in (-0.1, np.nan, np.inf, 1.0):
            with pytest.raises(ValueError):
                DisorderModel(epsilon=eps, n_realizations=10, base_seed=1)
        with pytest.raises(ValueError):
            DisorderModel(epsilon=0.1, n_realizations=0, base_seed=1)
        with pytest.raises(ValueError):
            DisorderModel(epsilon=0.1, n_realizations=10, base_seed=2**64)

    @pytest.mark.parametrize("nav,seed", [(2.5, 0), (3.0, 0), (3, 1.5), (3, 1.0), ("3", 0)])
    def test_non_integral_counts_rejected(self, nav, seed):
        with pytest.raises(ValueError, match="must be an integer"):
            DisorderModel(epsilon=0.1, n_realizations=nav, base_seed=seed)

    def test_numpy_integers_accepted(self, chains31):
        couplings = chains31["linear"].couplings
        numpy_model = DisorderModel(epsilon=0.1, n_realizations=np.int64(3), base_seed=np.uint64(SEED))
        plain = perturb_couplings(couplings, model(eps=0.1, nav=3), 2).couplings
        assert perturb_couplings(couplings, numpy_model, 2).couplings.tobytes() == plain.tobytes()


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


def _deficit_sum(chain):
    """sum_i ||(1 - P_N) D_i||^2 with D_i = int_0^t U(t - s) J_i V_i U(s) e_1 ds at t = t_pst.

    V_i = |i><i+1| + h.c.  In the clean eigenbasis <k|D_i> = J_i sum_l
    <k|V_i|l> a_{l,1} G_kl, where G_kl = int_0^t e^{-i w_k (t - s)} e^{-i w_l s} ds.
    """
    eig = diagonalize(chain.couplings)
    w, a, t = eig.eigenvalues, eig.eigenvectors, chain.t_pst
    gap = w[:, None] - w[None, :]
    np.fill_diagonal(gap, 1.0)
    g = (np.exp(-1j * w[None, :] * t) - np.exp(-1j * w[:, None] * t)) / (1j * gap)
    np.fill_diagonal(g, t * np.exp(-1j * w * t))
    b = g @ (a * a[:, :1])  # b[k, s] = sum_l G_kl a_{l,s} a_{l,1}
    # <k|V_i|l> = a_{k,i} a_{l,i+1} + a_{k,i+1} a_{l,i}; one column of d per bond
    d = chain.couplings.couplings * (a[:, :-1] * b[:, 1:] + a[:, 1:] * b[:, :-1])
    return float(np.sum(np.abs(d) ** 2) - np.sum(np.abs(a[:, -1] @ d) ** 2))


class TestRunEnsemble:
    @pytest.mark.parametrize("name", sorted(STANDARD_FAMILIES))
    def test_weak_disorder_deficit_matches_second_order_oracle(self, chains31, name):
        # E[1 - F(t_pst)] = (eps^2 / 9) sum_i ||(1 - P_N) D_i||^2 at second order,
        # from E[delta_i^2] = eps^2 / 3 and 1 - F = (1 - |f_N|^2) / 3; past a
        # predicted 1e-2 the expansion overshoots, so those cases are left out
        chain = chains31[name]
        deficit_sum = _deficit_sum(chain)
        checked = 0
        for eps in (1e-3, 1e-2):
            predicted = eps**2 / 9 * deficit_sum
            if predicted > 1e-2:
                continue
            res = run_ensemble(chain.couplings, model(eps=eps, nav=1000), [chain.t_pst])
            assert abs(1.0 - res.mean_fidelity[0] - predicted) <= 4.0 * res.std_error[0]
            checked += 1
        assert checked >= 1

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
            transfer = (eig.eigenvalues, end_products(eig))
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
            transfer = (eig.eigenvalues, end_products(eig))
            amp = np.array([abs(transfer_amplitude(transfer, t)) for t in times])
            trace = fidelity_trace(end_to_end(perturb_couplings(base, m, r)), 0.0, 60.0, 37)
            np.testing.assert_allclose(trace.amplitude_abs, amp, rtol=0, atol=1e-14)
            samples.append(averaged_fidelity(amp))
        samples = np.array(samples)
        np.testing.assert_allclose(res.mean_fidelity, samples.mean(axis=0), rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            res.std_error, samples.std(axis=0, ddof=1) / np.sqrt(6), rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize("times", [[np.inf], [np.nan], [0.0, 1.0, -np.inf]])
    def test_non_finite_times_rejected_before_any_realization(self, chains31, monkeypatch, times):
        solved = []
        monkeypatch.setattr(disorder, "end_to_end", lambda c: solved.append(c))
        with pytest.raises(ValueError, match="finite"):
            run_ensemble(chains31["linear"].couplings, model(nav=5), times)
        assert solved == []

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
        assert len(solved) == 6 + 6

    def test_thread_pool_matches_serial(self, chains31):
        chain = chains31["linear"]
        times = np.linspace(0.0, chain.t_pst, 11)
        a = run_ensemble(chain.couplings, model(eps=0.02, nav=16), times, n_workers=1)
        b = run_ensemble(chain.couplings, model(eps=0.02, nav=16), times, n_workers=4)
        np.testing.assert_array_equal(a.mean_fidelity, b.mean_fidelity)
        np.testing.assert_array_equal(a.std_error, b.std_error)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(
        nav=st.integers(1, 200),
        fractions=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=6),
        data=st.data(),
    )
    def test_statistics_do_not_depend_on_the_grid(self, chains31, nav, fractions, data):
        # each time's mean and standard error equal those of the grid's parts
        # on either side of any cut, and of a run at that time alone
        chain = chains31["quadratic"]
        m = model(eps=0.04, nav=nav)
        times = np.array(fractions) * chain.t_pst
        cut = data.draw(st.integers(1, times.size - 1), label="cut")
        pick = data.draw(st.integers(0, times.size - 1), label="pick")
        whole = run_ensemble(chain.couplings, m, times)
        parts = [run_ensemble(chain.couplings, m, part) for part in (times[:cut], times[cut:])]
        alone = run_ensemble(chain.couplings, m, times[pick : pick + 1])
        for field in ("mean_fidelity", "std_error"):
            split = np.concatenate([getattr(part, field) for part in parts])
            assert getattr(whole, field).tolist() == split.tolist()
            assert getattr(whole, field)[pick] == getattr(alone, field)[0]

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
        # same seeds, time and samples, and each time's samples are reduced
        # by themselves, so the other two echoes cannot change a bit
        assert echoes.mean_fidelity[0] == direct.mean_fidelity[0]
        assert echoes.std_error[0] == direct.std_error[0]

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

    @pytest.mark.parametrize("n_echoes", [2.5, 3.0])
    def test_non_integral_echo_count_rejected(self, chains31, n_echoes):
        with pytest.raises(ValueError, match="must be an integer"):
            echo_decay(chains31["linear"].couplings, model(), n_echoes)

    def test_echo_count_checked_before_the_chain_is_timed(self, chains31, monkeypatch):
        monkeypatch.setattr(disorder, "pst_time", lambda spectrum: pytest.fail("timed"))
        with pytest.raises(ValueError, match="at least one echo"):
            echo_decay(chains31["linear"].couplings, model(), 0)

    def test_times_are_echo_times_of_the_chain_s_own_t_pst(self, chains31):
        couplings = chains31["sqrt_center"].couplings
        res = echo_decay(couplings, model(nav=2), 4)
        t_pst = pst_time(Spectrum(couplings.eigenvalues())).t_pst
        assert res.times.tobytes() == echo_times(t_pst, 4).tobytes()

    def test_numpy_integer_echo_count_accepted(self, chains31):
        couplings = chains31["linear"].couplings
        res = echo_decay(couplings, model(nav=3), np.int64(3))
        assert res.times.tobytes() == echo_decay(couplings, model(nav=3), 3).times.tobytes()


def _sweep_rows(text):
    """The (epsilon, mean_fidelity, std_error) rows of a rendered sweep table."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body[0] == "epsilon,mean_fidelity,std_error"
    return [[float(v) for v in line.split(",")] for line in body[1:]]


class TestFidelityVsStrength:
    """The strength sweep: `sweep_table` rows, each `run_ensemble` at the designed t_pst."""

    def test_zero_strength_row(self, chains31):
        chain = chains31["linear"]
        res = run_ensemble(chain.couplings, model(eps=0.0, nav=5), [chain.t_pst])
        assert res.mean_fidelity[0] == pytest.approx(1.0, abs=1e-9)
        assert res.std_error[0] == 0.0

    def test_statistical_monotonicity(self, chains31):
        chain = chains31["linear"]
        rows = [
            run_ensemble(chain.couplings, model(eps=eps, nav=60), [chain.t_pst])
            for eps in np.arange(0.0, 0.31, 0.05)
        ]
        means = [row.mean_fidelity[0] for row in rows]
        errs = [row.std_error[0] for row in rows]
        for i in range(len(rows) - 1):
            slack = 2.0 * np.hypot(errs[i], errs[i + 1])
            assert means[i + 1] <= means[i] + slack

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(sorted(STANDARD_FAMILIES)),
        strengths=st.lists(st.sampled_from([0.0, 0.01, 0.3]), min_size=1, max_size=3),
        nav=st.integers(1, 12),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_rows_are_ensembles_at_the_clean_t_pst(self, chains31, name, strengths, nav, seed):
        chain = chains31[name]
        rows = _sweep_rows(sweep_table(chain, [model(eps=eps, nav=nav, seed=seed) for eps in strengths]))
        for eps, row in zip(strengths, rows, strict=True):
            direct = run_ensemble(chain.couplings, model(eps=eps, nav=nav, seed=seed), [chain.t_pst])
            assert row == [eps, direct.mean_fidelity[0], direct.std_error[0]]

    def test_makes_no_pst_time_call(self, chains31, monkeypatch):
        def forbidden(spectrum):
            raise AssertionError("a sweep timed the chain again")

        for module in (disorder, spectra):
            monkeypatch.setattr(module, "pst_time", forbidden)
        strengths = [0.0, 0.01, 0.05, 0.1, 0.15, 0.2, 0.3]
        rows = _sweep_rows(sweep_table(chains31["linear"], [model(eps=eps, nav=3) for eps in strengths]))
        assert [row[0] for row in rows] == strengths

    def test_negative_strength_rejected(self, chains31, monkeypatch):
        solved = []
        monkeypatch.setattr(disorder, "end_to_end", lambda c: solved.append(c))
        for strengths in ([-0.1], [0.1, np.nan], [np.inf]):
            with pytest.raises(ValueError, match="finite and non-negative"):
                sweep_table(chains31["linear"], [model(eps=eps, nav=5) for eps in strengths])
        assert solved == []

    @pytest.mark.parametrize("models", [
        [], [model(eps=0.1, nav=5), model(eps=0.2, nav=6)], [model(seed=1), model(seed=2)],
    ], ids=["empty", "nav", "seed"])
    def test_models_must_share_one_ensemble(self, chains31, models):
        with pytest.raises(ValueError, match="strength|share"):
            sweep_table(chains31["linear"], models)


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
