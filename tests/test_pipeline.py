import collections
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from pstchain import dynamics, pipeline, spectra
from pstchain.cli import EXIT_OK, main
from pstchain.dynamics import diagonalize
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

ROOT = pathlib.Path(__file__).resolve().parents[1]


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

    def test_design_solves_no_eigensystem(self, monkeypatch):
        solved = _record_calls(monkeypatch, dynamics, "diagonalize")
        chain = design_standard("linear", 31)
        assert solved == []
        eig = chain.eigensystem
        assert chain.eigensystem is eig and len(solved) == 1
        ref = diagonalize(chain.couplings)
        assert eig.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert eig.eigenvectors.tobytes() == ref.eigenvectors.tobytes()


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
        assert list(chain.timing.odd_multipliers) == list(stage.timing.odd_multipliers)

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


@pytest.mark.parametrize("error", [
    NotCommensurateError, DegenerateGapsError, ReconstructionUnstableError,
    NoWindowError, NoEchoError, ProductIdentityError,
])
def test_numerical_errors_share_one_base(error):
    assert issubclass(error, NumericalError) and not issubclass(error, ValueError)


def test_benchmark_tracer_resolves_every_target(monkeypatch):
    # the benchmark's per-layer view patches the bindings of the loaded
    # pstchain modules (pstchain.cli is imported above), so a binding moved
    # between modules must not silently drop a layer
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    with t.patched():
        pass
    assert t.absent == []
