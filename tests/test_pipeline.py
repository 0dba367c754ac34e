import collections
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from pstchain import dynamics, inverse_eigen, pipeline, spectra
from pstchain.analysis import level_shift_stats
from pstchain.cli import EXIT_OK, main
from pstchain.disorder import DisorderModel
from pstchain.dynamics import end_to_end
from pstchain.errors import (
    DegenerateGapsError,
    NoEchoError,
    NotCommensurateError,
    NoWindowError,
    NumericalError,
    ProductIdentityError,
    ReconstructionUnstableError,
)
from pstchain.pipeline import STANDARD_FAMILIES, design_chain, design_standard, spectrum_stage
from pstchain.spectra import SpectrumSpec, generate_spectrum

from conftest import SEED
from oracles import transfer_amplitude


def _record_calls(monkeypatch, module, name):
    """Wrap every binding of module.name in the loaded pstchain modules.

    Returns the list that collects (args, result) per call.
    """
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "pstchain" or key.startswith("pstchain.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


class TestDesignOnce:
    def test_reproduce_designs_scans_and_diagonalizes_each_chain_once(self, tmp_path, monkeypatch):
        generated = _record_calls(monkeypatch, spectra, "generate_spectrum")
        adjusted = _record_calls(monkeypatch, spectra, "commensurate_adjust")
        designed = _record_calls(monkeypatch, pipeline, "design_chain")
        solved = _record_calls(monkeypatch, dynamics, "diagonalize")
        code = main(["reproduce", "--outdir", str(tmp_path), "--n", "9", "--nav", "5", "--seed", "3"])
        assert code == EXIT_OK
        assert len(generated) == 5 and len(adjusted) == 5 and len(designed) == 5
        solves = collections.Counter(args[0].couplings.tobytes() for args, _ in solved)
        for _, chain in designed:
            assert solves[chain.couplings.couplings.tobytes()] == 1
        assert len(solved) == len(designed)  # only the localization tables read eigenvectors

    def test_one_clean_level_solve_per_chain(self, monkeypatch):
        solved = _record_calls(monkeypatch, inverse_eigen, "eigvalsh_tridiagonal")
        chain = design_chain(31, "center", 2.0)
        end_to_end(chain.couplings)
        n_realizations = 20
        level_shift_stats(chain.couplings, DisorderModel(0.01, n_realizations, SEED))
        # the design's verification solves the clean levels; every later reader shares them
        assert len(solved) == 1 + n_realizations
        levels = chain.couplings.eigenvalues()
        assert levels is chain.couplings.eigenvalues() and not levels.flags.writeable

    def test_design_solves_no_eigensystem(self, monkeypatch):
        solved = _record_calls(monkeypatch, dynamics, "diagonalize")
        design_standard("linear", 31)
        assert solved == []


class TestSpectrumStage:
    @pytest.mark.parametrize("name", STANDARD_FAMILIES)
    def test_design_keeps_its_stage_before_normalization(self, name):
        family, alpha = STANDARD_FAMILIES[name]
        chain = design_standard(name, 31)
        stage = spectrum_stage(SpectrumSpec(31, family, alpha))
        assert chain.stage.spectrum.values.tobytes() == stage.spectrum.values.tobytes()
        assert chain.stage.timing.t_pst == stage.timing.t_pst
        assert chain.stage.max_adjustment == stage.max_adjustment
        assert not stage.no_adjust
        scale = chain.t_pst / stage.timing.t_pst  # the normalization undone
        np.testing.assert_allclose(chain.spectrum.values * scale, stage.spectrum.values, rtol=1e-14)

    def test_no_adjust_keeps_the_generated_spectrum(self):
        spec = SpectrumSpec(31, "center", 2.0)
        stage = spectrum_stage(spec, no_adjust=True)
        assert stage.no_adjust and stage.max_adjustment == 0.0
        assert stage.spectrum.values.tobytes() == generate_spectrum(spec).values.tobytes()
        assert stage.timing.t_pst == pytest.approx(np.pi)

    def test_design_records_what_was_designed(self):
        chain = design_chain(15, "boundary", 0.5, 2.5, normalize=False, base_search_tolerance=1e-3)
        assert chain.spec is chain.stage.spec
        assert chain.spec == SpectrumSpec(15, "boundary", 0.5, 2.5)
        assert chain.stage.base_search_tolerance == 1e-3
        assert not chain.stage.no_adjust and not chain.normalize

    def test_no_adjust_rejects_an_incommensurate_spectrum(self):
        with pytest.raises(NotCommensurateError):
            spectrum_stage(SpectrumSpec(31, "center", 0.5), no_adjust=True)


def _assert_designed(chain, bound=1e-12):
    """Residual, exact mirror symmetry and |f_N(t_pst)| = 1, checked by a dense eigensolve."""
    J = chain.couplings.couplings
    assert chain.residual < bound
    np.testing.assert_array_equal(J, J[::-1])
    values, vectors = eigh_tridiagonal(np.zeros(J.size + 1), J)
    amplitude = abs(np.exp(-1j * values * chain.t_pst) @ (vectors[0] * vectors[-1]))
    assert abs(amplitude - 1.0) < bound


class TestTwoSectorInverse:
    @pytest.mark.parametrize("name", ["quadratic", "sqrt_boundary"])
    def test_designs_at_1001(self, name, chains1001):
        _assert_designed(chains1001[name])

    def test_linear_matches_its_closed_form_at_1001(self, chains1001):
        n = 1001
        i = np.arange(1, n, dtype=float)
        closed = np.sqrt(i * (n - i))
        J = chains1001["linear"].couplings.couplings
        np.testing.assert_allclose(J, closed / closed.max(), rtol=1e-14, atol=0)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        family=st.sampled_from([spectra.CENTER, spectra.BOUNDARY]),
        alpha=st.floats(0.3, 3.0),
        half=st.integers(1, 50),
    )
    def test_designs_or_raises_numerical(self, family, alpha, half):
        try:
            chain = design_chain(2 * half + 1, family, alpha)
        except NumericalError:
            return
        _assert_designed(chain)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        family=st.sampled_from([spectra.CENTER, spectra.BOUNDARY]),
        alpha=st.floats(0.1, 6.0),
        half=st.integers(1, 150),
    )
    @example(family=spectra.BOUNDARY, alpha=4.0, half=50)
    @example(family=spectra.BOUNDARY, alpha=4.0, half=100)
    @example(family=spectra.BOUNDARY, alpha=5.0, half=40)
    def test_a_designed_chain_transfers(self, family, alpha, half):
        # designed implies simulable: the end-to-end products pass their checks, and
        # |f_N(t_pst)| falls short of 1 by at most 9.4e-9 over 1506 grid designs up to
        # N = 301 (at boundary alpha = 2.94, N = 283), so 1e-7 bounds it
        try:
            chain = design_chain(2 * half + 1, family, alpha)
        except NumericalError:
            return
        transfer = end_to_end(chain.couplings)
        assert abs(transfer_amplitude(transfer, chain.t_pst)) >= 1.0 - 1e-7


@pytest.mark.parametrize("error", [
    NotCommensurateError, DegenerateGapsError, ReconstructionUnstableError,
    NoWindowError, NoEchoError, ProductIdentityError,
])
def test_numerical_errors_share_one_base(error):
    assert issubclass(error, NumericalError) and not issubclass(error, ValueError)
