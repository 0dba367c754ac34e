import numpy as np
import pytest
from scipy.linalg import LinAlgError

from pstchain.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    chain_table,
    localization_table,
    main,
    simulate_table,
    spectrum_table,
)
from pstchain import inverse_eigen
from pstchain.dynamics import end_to_end
from pstchain.errors import NoWindowError, ReconstructionUnstableError
from pstchain.inverse_eigen import CouplingSet
from pstchain.pipeline import STANDARD_FAMILIES, design_chain, spectrum_stage
from pstchain.spectra import SpectrumSpec
from pstchain.tableio import read_table

from conftest import SEED
from oracles import transfer_amplitude


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


class TestSpectrumCommand:
    def test_linear_n5(self, tmp_path):
        code, out = run(tmp_path, "s.csv", [
            "spectrum", "--family", "center", "--alpha", "1", "--n", "5",
        ])
        assert code == EXIT_OK
        meta, columns, data = read_table(out)
        assert columns == ["level_index", "energy"]
        np.testing.assert_array_equal(data[:, 1], [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert meta["results"]["t_pst"] == pytest.approx(np.pi, rel=1e-12)
        assert meta["results"]["odd_multipliers"] == [1, 1, 1, 1]

    def test_fractional_alpha_reports_adjustment(self, tmp_path):
        code, out = run(tmp_path, "s.csv", [
            "spectrum", "--family", "center", "--alpha", "0.5", "--n", "31",
        ])
        assert code == EXIT_OK
        meta, _, data = read_table(out)
        adj = meta["results"]["max_adjustment_rel"]
        assert 0.0 < adj < 0.05
        mult = np.array(meta["results"]["odd_multipliers"])
        base = np.pi / meta["results"]["t_pst"]
        np.testing.assert_allclose(np.diff(data[:, 1]) / base, mult, rtol=1e-10)

    def test_even_n_exits_2(self, capsys):
        code = main(["spectrum", "--family", "center", "--alpha", "1", "--n", "6"])
        assert code == EXIT_CONFIG
        assert "odd" in capsys.readouterr().err

    def test_incommensurate_without_adjust_exits_3(self, capsys):
        code = main([
            "spectrum", "--family", "center", "--alpha", "0.5", "--n", "31",
            "--no-adjust",
        ])
        assert code == EXIT_NUMERICAL
        assert "NotCommensurate" in capsys.readouterr().err


class TestChainCommand:
    def test_linear_pattern(self, tmp_path):
        code, out = run(tmp_path, "c.csv", [
            "chain", "--family", "center", "--alpha", "1", "--n", "31",
        ])
        assert code == EXIT_OK
        meta, columns, data = read_table(out)
        assert columns == ["bond_index", "coupling", "coupling_over_jmax", "residual"]
        i = data[:, 0]
        expected = np.sqrt(i * (31 - i))
        expected /= expected.max()
        np.testing.assert_allclose(data[:, 2], expected, rtol=1e-8)
        assert meta["results"]["j_max"] == 1.0

    @pytest.mark.parametrize(
        "family,alpha",
        [("center", 1.0), ("center", 2.0), ("boundary", 0.5), ("center", 0.5), ("boundary", 2.0)],
    )
    def test_residual_column(self, tmp_path, family, alpha):
        code, out = run(tmp_path, "c.csv", [
            "chain", "--family", family, "--alpha", repr(alpha), "--n", "31",
        ])
        assert code == EXIT_OK
        _, _, data = read_table(out)
        assert np.all(data[:, 3] < 1e-9)

    def test_quadratic_weaker_edges_than_linear(self, tmp_path):
        _, lin = run(tmp_path, "lin.csv", [
            "chain", "--family", "center", "--alpha", "1", "--n", "31",
        ])
        _, quad = run(tmp_path, "quad.csv", [
            "chain", "--family", "center", "--alpha", "2", "--n", "31",
        ])
        _, _, dl = read_table(lin)
        _, _, dq = read_table(quad)
        assert dq[0, 2] < dl[0, 2]
        assert dq[-1, 2] < dl[-1, 2]

    @pytest.mark.parametrize("amplitude,cause", [
        # omega_max = 1.25e308: the levels are representable, their differences are not
        ("5e306", "level difference overflows"),
    ], ids=["level-differences"])
    def test_overflow_exits_3_where_spectrum_succeeds(self, tmp_path, capsys, amplitude, cause):
        argv = ["--family", "center", "--alpha", "2", "--n", "11", "--amplitude", amplitude]
        code, _ = run(tmp_path, "c.csv", ["chain", *argv])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error (ReconstructionUnstableError): ") and err.count("\n") == 1
        assert cause in err
        code, out = run(tmp_path, "s.csv", ["spectrum", *argv])
        assert code == EXIT_OK and out.stat().st_size > 0

    @pytest.mark.parametrize("amplitude", ["1e-300", "1e-170", "1e153", "1e300"])
    def test_design_does_not_depend_on_the_amplitude(self, tmp_path, amplitude):
        # unscaled, the recursion's squares leave the float range from 1e153 up and below about 1e-160
        argv = ["chain", "--family", "center", "--alpha", "2", "--n", "31"]
        code, out = run(tmp_path, "c.csv", [*argv, "--amplitude", amplitude])
        assert code == EXIT_OK
        _, _, data = read_table(out)
        np.testing.assert_allclose(data[:, 1], design_chain(31, "center", 2.0).couplings.couplings, rtol=1e-12)

    @pytest.mark.parametrize("alpha,n_sites", [("3", "121"), ("4", "31"), ("5", "31")])
    def test_commensurate_spectrum_with_wide_gap_ratio_designs(self, tmp_path, alpha, n_sites):
        # odd integer gaps from 1 up to more than 1e4: snapped as they are, no scan
        code, out = run(tmp_path, "c.csv", ["chain", "--family", "center", "--alpha", alpha, "--n", n_sites])
        assert code == EXIT_OK
        meta, columns, data = read_table(out)
        assert meta["results"]["residual"] < 1e-14
        transfer = end_to_end(CouplingSet(data[:, columns.index("coupling")]))
        assert abs(transfer_amplitude(transfer, meta["results"]["t_pst"])) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_quadratic_designs_at_2001(self, tmp_path):
        # the full-chain weights range over 120 decades here; the sector weights over a few
        argv = ["chain", "--family", "boundary", "--alpha", "2", "--n", "2001"]
        code, out = run(tmp_path, "c.csv", argv)
        assert code == EXIT_OK
        _, _, data = read_table(out)
        assert data.shape[0] == 2000
        assert np.all(data[:, 3] < 1e-12)


class TestNumericalBreakdownExits3:
    @pytest.mark.parametrize("command", ["spectrum", "chain"])
    def test_collapsed_boundary_levels(self, capfd, command):
        # c**alpha - (c - x)**alpha rounds onto itself from alpha = 18 at N = 31
        assert main([command, "--family", "boundary", "--alpha", "18", "--n", "31"]) == EXIT_NUMERICAL
        err = capfd.readouterr().err
        assert err.startswith("error (DegenerateGapsError): ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["chain", "--amplitude", "1e-320"],
        ["chain", "--amplitude", "5e-324"],
        ["spectrum", "--amplitude", "1e-320", "--no-adjust"],
    ], ids=["chain", "smallest-subnormal", "no-adjust"])
    def test_subnormal_spectrum(self, capfd, argv):
        # the smallest gap is subnormal; no numpy warning reaches stderr
        command, *rest = argv
        assert main([command, "--family", "center", "--alpha", "2", "--n", "11", *rest]) == EXIT_NUMERICAL
        err = capfd.readouterr().err
        assert err.startswith("error (") and "Error): " in err and err.count("\n") == 1

    def test_gap_ratios_past_the_oddness_window(self, capfd):
        # the largest gap is 1.2e12 times the smallest: a window of 1e-9 r would count every real number as odd
        argv = ["spectrum", "--no-adjust", "--family", "center", "--alpha", "10.5", "--n", "31"]
        assert main(argv) == EXIT_NUMERICAL
        err = capfd.readouterr().err
        assert err.startswith("error (NotCommensurateError): ") and err.count("\n") == 1

    def test_coinciding_levels_of_a_realization(self, monkeypatch, capfd):
        solve = CouplingSet.eigenvalues
        monkeypatch.setattr(CouplingSet, "eigenvalues", lambda self: np.sort(np.r_[solve(self)[1:], solve(self)[1]]))
        argv = ["ensemble", "--family", "center", "--alpha", "2", "--n", "11", "--nav", "2"]
        assert main(argv) == EXIT_NUMERICAL
        err = capfd.readouterr().err
        assert err == "error (ProductIdentityError): computed levels of the 11-site chain coincide\n"

    def test_eigensolver_failure(self, monkeypatch, capfd):
        def no_convergence(d, e):
            raise LinAlgError("stevd (eigh_tridiagonal) did not converge (LAPACK info=1)")

        monkeypatch.setattr(inverse_eigen, "eigvalsh_tridiagonal", no_convergence)
        argv = ["ensemble", "--family", "center", "--alpha", "2", "--n", "11", "--nav", "2"]
        assert main(argv) == EXIT_NUMERICAL
        err = capfd.readouterr().err
        assert err == (
            "error (NumericalError): eigenvalues of the 11-site chain: "
            "stevd (eigh_tridiagonal) did not converge (LAPACK info=1)\n"
        )


class TestHeaderFromDesign:
    FAMILY = {"family": "boundary", "alpha": 0.5, "n": 15, "amplitude": 2.5, "base_search_tolerance": 1e-3}

    def header(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        return read_table(path)[0]["params"]

    def test_every_table_records_the_chain_it_renders(self, tmp_path):
        chain = design_chain(15, "boundary", 0.5, 2.5, normalize=False, base_search_tolerance=1e-3)
        assert self.header(tmp_path, chain_table(chain)) == self.FAMILY | {"normalize": False}
        assert self.header(tmp_path, localization_table(chain)) == self.FAMILY
        assert self.header(tmp_path, simulate_table(chain, 1.0, 10)) == self.FAMILY | {
            "periods": 1.0, "points_per_period": 10,
        }

    def test_spectrum_table_records_its_stage(self, tmp_path):
        stage = spectrum_stage(SpectrumSpec(15, "boundary", 0.5, 2.5), 1e-3, no_adjust=False)
        assert self.header(tmp_path, spectrum_table(stage)) == self.FAMILY | {"no_adjust": False}


class TestEnsembleCommand:
    def test_zero_strength_reproduces_simulate(self, tmp_path):
        base = ["--family", "center", "--alpha", "2", "--n", "15",
                "--periods", "1.5", "--points-per-period", "300"]
        _, sim = run(tmp_path, "sim.csv", ["simulate"] + base)
        _, ens = run(tmp_path, "ens.csv", [
            "ensemble", *base, "--eps", "0", "--nav", "8", "--seed", str(SEED),
        ])
        _, _, dsim = read_table(sim)
        _, _, dens = read_table(ens)
        np.testing.assert_array_equal(dens[:, 0], dsim[:, 0])   # times
        np.testing.assert_array_equal(dens[:, 2], dsim[:, 3])   # fidelity
        np.testing.assert_array_equal(dens[:, 3], np.zeros(len(dens)))

    def test_echo_mode_schema(self, tmp_path):
        code, out = run(tmp_path, "e.csv", [
            "ensemble", "--family", "center", "--alpha", "2", "--n", "15",
            "--eps", "0.01", "--nav", "10", "--seed", str(SEED), "--echoes", "9",
        ])
        assert code == EXIT_OK
        meta, columns, data = read_table(out)
        assert columns == ["echo_index", "time", "mean_fidelity", "std_error"]
        assert data.shape == (9, 4)
        np.testing.assert_array_equal(data[:, 0], np.arange(1, 10))
        t_pst = meta["results"]["t_pst"]
        np.testing.assert_allclose(data[:, 1], (2 * np.arange(1, 10) - 1) * t_pst, rtol=1e-12)
        assert meta["params"]["base_seed"] == SEED
        assert "rng_algorithm_id" in meta["params"]

    def test_sweep_mode(self, tmp_path):
        code, out = run(tmp_path, "sw.csv", [
            "ensemble", "--family", "center", "--alpha", "1", "--n", "15",
            "--nav", "10", "--seed", str(SEED), "--sweep", "0.0,0.05,0.1",
        ])
        assert code == EXIT_OK
        _, columns, data = read_table(out)
        assert columns == ["epsilon", "mean_fidelity", "std_error"]
        np.testing.assert_array_equal(data[:, 0], [0.0, 0.05, 0.1])
        assert data[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_sweep_neither_checks_nor_records_eps(self, tmp_path):
        # no sweep row reads --eps, so an out-of-range value is not an error
        code, out = run(tmp_path, "sw.csv", [
            "ensemble", "--family", "center", "--alpha", "1", "--n", "9",
            "--nav", "3", "--sweep", "0.1,0.2", "--eps", "5",
        ])
        assert code == EXIT_OK
        meta, _, _ = read_table(out)
        assert "eps" not in meta["params"]
        assert meta["params"]["sweep"] == [0.1, 0.2] and meta["params"]["nav"] == 3

    def test_echoes_and_sweep_exclusive(self, capsys):
        code = main([
            "ensemble", "--family", "center", "--alpha", "1", "--n", "15",
            "--echoes", "3", "--sweep", "0.1",
        ])
        assert code == EXIT_CONFIG
        # rejected by argparse while parsing, before any chain is designed
        assert "argument --sweep: not allowed with argument --echoes" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        argv = [
            "ensemble", "--family", "center", "--alpha", "2", "--n", "15",
            "--eps", "0.02", "--nav", "12", "--seed", "99", "--echoes", "4",
        ]
        _, a = run(tmp_path, "a.csv", argv)
        _, b = run(tmp_path, "b.csv", argv)
        assert a.read_bytes() == b.read_bytes()

    def test_regenerate_from_metadata(self, tmp_path):
        argv = [
            "ensemble", "--family", "boundary", "--alpha", "2", "--n", "15",
            "--eps", "0.03", "--nav", "9", "--seed", "1234", "--echoes", "3",
        ]
        _, first = run(tmp_path, "first.csv", argv)
        meta, _, _ = read_table(first)
        p = meta["params"]
        rebuilt = [
            meta["command"],
            "--family", p["family"], "--alpha", repr(p["alpha"]),
            "--n", str(p["n"]), "--amplitude", repr(p["amplitude"]),
            "--base-search-tolerance", repr(p["base_search_tolerance"]),
            "--eps", repr(p["eps"]), "--nav", str(p["nav"]),
            "--seed", str(p["base_seed"]), "--echoes", str(p["echoes"]),
        ]
        _, second = run(tmp_path, "second.csv", rebuilt)
        assert first.read_bytes() == second.read_bytes()


class TestAnalyzeCommand:
    def test_localization_concentration(self, tmp_path):
        code, out = run(tmp_path, "loc.csv", [
            "analyze", "--localization",
            "--family", "center", "--alpha", "2", "--n", "31",
        ])
        assert code == EXIT_OK
        meta, columns, data = read_table(out)
        assert columns == ["level_index", "site_index", "probability"]
        assert data.shape == (31 * 31, 3)
        site1 = data[data[:, 1] == 1]
        p1 = site1[np.argsort(site1[:, 0]), 2]
        # boundary-site state concentrated on band-center levels
        assert p1[13:18].sum() > 0.9
        assert meta["results"]["participation_ratio_site1"] < 5.0

    def test_level_shifts_schema(self, tmp_path):
        code, out = run(tmp_path, "ls.csv", [
            "analyze", "--level-shifts",
            "--family", "center", "--alpha", "1", "--n", "15",
            "--eps", "0.02", "--nav", "50", "--seed", str(SEED),
        ])
        assert code == EXIT_OK
        meta, columns, data = read_table(out)
        assert columns[:3] == ["level_index", "energy", "std_shift"]
        mid = 7
        assert data[mid, 2] < 1e-12 * meta["results"]["normalization"]

    def test_window_metrics(self, tmp_path):
        code, out = run(tmp_path, "w.csv", [
            "analyze", "--window",
            "--family", "center", "--alpha", "2", "--n", "15",
        ])
        assert code == EXIT_OK
        meta, columns, data = read_table(out)
        t_pst, gamma, curvature, width, t_first, f_first = data[0]
        assert t_pst == pytest.approx(meta["results"]["t_pst"], rel=1e-12)
        assert curvature > 0 and width > 0
        assert t_first == pytest.approx(t_pst, rel=1e-3)
        assert f_first == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n_sites,first_max_time", [
        (3, 2.2214414690791826),
        (11, 245.3159449274392),
        (31, 5803.857547255099),
        (101, 202150.41174255146),
    ])
    def test_first_maximum_in_the_walks_last_step(self, tmp_path, n_sites, first_max_time):
        # the first maximum is the transfer peak at t_pst, in the walk's last step,
        # clipped to t_end = 1.05 t_pst, with no sample after it; the reference
        # times come from a walk that sampled past t_end, and both solve to 4 u t_end
        code, out = run(tmp_path, "w.csv", [
            "analyze", "--window", "--family", "center", "--alpha", "3", "--n", str(n_sites),
        ])
        assert code == EXIT_OK
        _, columns, data = read_table(out)
        t_end = 1.05 * data[0, columns.index("t_pst")]
        tol = 2.0 * np.finfo(float).eps * t_end
        assert abs(data[0, columns.index("first_max_time")] - first_max_time) <= tol
        assert data[0, columns.index("first_max_fidelity")] >= 1.0 - 5e-14

    def test_wide_window_is_not_clipped(self, tmp_path):
        # the 0.8-window is 0.21 t_pst wide, wider than the first fine trace;
        # 5.0203 comes from a 200001-point trace over [0.5, 1.5] t_pst
        code, out = run(tmp_path, "w.csv", [
            "analyze", "--window", "--threshold", "0.8",
            "--family", "center", "--alpha", "1", "--n", "31",
        ])
        assert code == EXIT_OK
        _, columns, data = read_table(out)
        assert abs(data[0, columns.index("width")] - 5.0203) < 1e-3


class TestConfigurationErrors:
    @pytest.mark.parametrize("flag,value,named", [
        ("--eps", "nan", "epsilon"),
        ("--sweep", "0.1,nan", "strengths"),
        ("--sweep", "0.1,inf", "strengths"),
        ("--base-search-tolerance", "0", "base_search_tolerance"),
        ("--base-search-tolerance", "-1", "base_search_tolerance"),
        ("--base-search-tolerance", "nan", "base_search_tolerance"),
        ("--base-search-tolerance", "1e-12", "base_search_tolerance"),
        ("--amplitude", "1e308", "finite"),
    ])
    def test_bad_value_exits_2(self, capsys, flag, value, named):
        code = main([
            "ensemble", "--family", "center", "--alpha", "0.5", "--n", "15", "--nav", "3",
            flag, value,
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert named in err

    def test_sweep_strength_of_one_exits_before_any_realization(self, monkeypatch, capsys):
        import pstchain.disorder as disorder

        kernel, solved = disorder.end_to_end, []
        monkeypatch.setattr(disorder, "end_to_end", lambda c: solved.append(c) or kernel(c))
        code = main(["ensemble", "--family", "center", "--alpha", "2", "--n", "11", "--nav", "3", "--sweep", "0.1,1.5"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "1.5" in err and solved == []

    def test_eps_of_one_exits_before_design(self, monkeypatch, capsys):
        import pstchain.cli as cli

        designed = []
        monkeypatch.setattr(cli, "design_chain", lambda *args: designed.append(args) or design_chain(*args))
        code = main(["ensemble", "--family", "center", "--alpha", "2", "--n", "11", "--nav", "3", "--eps", "1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "epsilon" in err and designed == []

    @pytest.mark.parametrize("argv", [
        ["analyze", "--level-shifts", "--eps", "5"],
        ["analyze", "--level-shifts", "--nav", "0"],
        ["analyze", "--window", "--threshold", "2"],
        ["simulate", "--periods", "-1"],
        ["ensemble", "--points-per-period", "1"],
        ["ensemble", "--echoes", "0"],
        ["ensemble", "--sweep", ","],
    ], ids=["level-shifts-eps", "level-shifts-nav", "window-threshold", "simulate-periods",
            "ensemble-points-per-period", "ensemble-echoes", "ensemble-sweep"])
    def test_bad_flag_exits_2_before_a_failing_design(self, capsys, argv):
        # this design exits 3 (DegenerateGapsError), so exit 2 shows the flag was checked first
        assert main([*argv, "--family", "boundary", "--alpha", "18", "--n", "31"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--family", "center", "--alpha", "2", "--amplitude", "1e308"],
        ["--family", "boundary", "--alpha", "2", "--amplitude", "1e308"],
        ["--family", "boundary", "--alpha", "1000"],
    ], ids=["center-amplitude", "boundary-amplitude", "boundary-exponent"])
    def test_overflowing_spectrum_exits_2(self, capfd, argv):
        # nothing but the one error line reaches stderr, numpy warnings included
        assert main(["spectrum", "--n", "31", *argv]) == EXIT_CONFIG
        assert capfd.readouterr().err == "configuration error: spectrum values must be finite\n"

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["ensemble", "--nav", "2"],
    ], ids=["simulate", "ensemble"])
    def test_one_point_per_period_exits_2(self, capsys, argv):
        code = main(argv + ["--family", "center", "--alpha", "2", "--n", "11", "--points-per-period", "1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "configuration error: periods must be positive and points-per-period >= 2\n"

    @pytest.mark.parametrize("argv,periods", [
        (["simulate"], "1e306"),
        (["simulate"], "1e12"),
        (["simulate"], "1e-9"),
        (["ensemble", "--nav", "2"], "1e-9"),
    ], ids=["overflow", "unallocatable", "simulate-one-point", "ensemble-one-point"])
    def test_oversized_grid_exits_2(self, capsys, argv, periods):
        # 1e306 periods overflow the point count; 1e12 periods ask for a
        # 14 PiB grid, which numpy refuses without touching memory; 1e-9
        # periods round to a one-point grid, which every trace mode rejects
        code = main(argv + ["--family", "center", "--alpha", "2", "--n", "9", "--periods", periods])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,value", [
        (["simulate"], 10**400),
        (["ensemble", "--nav", "2"], 10**400),
    ], ids=["simulate", "ensemble"])
    def test_points_per_period_past_float_range_exits_2(self, capsys, argv, value):
        code = main(argv + ["--family", "center", "--alpha", "2", "--n", "11", "--points-per-period", str(value)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--family", "center", "--alpha", "1", "--n", "5", "--out"],
        ["reproduce", "--n", "5", "--nav", "2", "--outdir"],
    ], ids=["out", "outdir"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(argv + [str(blocker / "x.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot write") and err.count("\n") == 1


class TestThreadOptionRemoved:
    @pytest.mark.parametrize("argv", [
        ["ensemble", "--family", "center", "--alpha", "1", "--n", "5", "--nav", "2", "--out"],
        ["reproduce", "--n", "5", "--nav", "2", "--outdir"],
    ], ids=["ensemble", "reproduce"])
    def test_threads_flag_exits_2(self, tmp_path, argv):
        assert main(argv + [str(tmp_path / "x"), "--threads", "2"]) == EXIT_CONFIG


class TestWindowGridOptionRemoved:
    def test_points_per_period_flag_exits_2(self, tmp_path):
        # the first maximum is solved on the spectrum, so window mode has no grid to size
        argv = ["analyze", "--window", "--family", "center", "--alpha", "2", "--n", "11"]
        assert main(argv + ["--out", str(tmp_path / "x"), "--points-per-period", "300"]) == EXIT_CONFIG


class TestReproduceCommand:
    def test_writes_full_product_set(self, tmp_path):
        outdir = tmp_path / "products"
        code = main([
            "reproduce", "--outdir", str(outdir), "--n", "9", "--nav", "5",
            "--seed", str(SEED),
        ])
        assert code == EXIT_OK
        files = sorted(f.name for f in outdir.iterdir())
        assert len(files) == 45
        for f in outdir.iterdir():
            meta, columns, data = read_table(f)
            assert meta["tool"] == "pstchain"
            assert len(columns) > 0 and data.size > 0

    def test_level_solves(self, tmp_path, monkeypatch):
        # per family: the clean levels once, then one solve per realization of the
        # trace (5), the echoes (5), the sweep (7 x 5) and the level shifts (5)
        solve, solved = inverse_eigen.eigvalsh_tridiagonal, []
        monkeypatch.setattr(inverse_eigen, "eigvalsh_tridiagonal", lambda d, e: solved.append(e) or solve(d, e))
        assert main(["reproduce", "--outdir", str(tmp_path), "--n", "9", "--nav", "5", "--seed", "3"]) == EXIT_OK
        assert len(solved) == 5 * (1 + 5 + 5 + 7 * 5 + 5) == 255

    def test_three_site_chains(self, tmp_path):
        # every family's 3-site chain has its first maximum at t_pst, in the
        # first-maximum walk's last step
        outdir = tmp_path / "products"
        assert main(["reproduce", "--outdir", str(outdir), "--n", "3", "--nav", "2"]) == EXIT_OK
        assert len(list(outdir.iterdir())) == 45

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def no_window(*args):
            raise NoWindowError("forced")

        monkeypatch.setattr("pstchain.cli.window_width", no_window)
        code = main(["reproduce", "--outdir", str(tmp_path), "--n", "5", "--nav", "2"])
        assert code == EXIT_NUMERICAL
        assert "NoWindowError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,exit_code", [
        (["--nav", "0"], EXIT_CONFIG),
        (["--n", "5", "--nav", "2"], EXIT_NUMERICAL),
    ], ids=["no-realizations", "reconstruction-unstable"])
    def test_invalid_run_writes_nothing(self, tmp_path, monkeypatch, capsys, argv, exit_code):
        def unstable(spectrum):
            raise ReconstructionUnstableError("forced", site_index=1)

        monkeypatch.setattr("pstchain.pipeline.reconstruct_couplings", unstable)
        outdir = tmp_path / "products"
        assert main(["reproduce", "--outdir", str(outdir), *argv]) == exit_code
        assert capsys.readouterr().err.count("\n") == 1
        assert not outdir.exists()

    def test_files_match_standalone_subcommands(self, tmp_path):
        outdir = tmp_path / "products"
        code = main(["reproduce", "--outdir", str(outdir), "--n", "9", "--nav", "5", "--seed", "3"])
        assert code == EXIT_OK
        disorder = ["--seed", "3", "--nav", "5"]
        stages = {
            "spectrum": ["spectrum"],
            "chain": ["chain"],
            "trace": ["simulate", "--periods", "2"],
            "ensemble_trace": ["ensemble", *disorder, "--eps", "0.01", "--periods", "2"],
            "echoes": ["ensemble", *disorder, "--eps", "0.01", "--echoes", "9"],
            "strength_sweep": ["ensemble", *disorder, "--sweep", "0.01,0.05,0.1,0.15,0.2,0.25,0.3"],
            "localization": ["analyze", "--localization"],
            "level_shifts": ["analyze", "--level-shifts", *disorder, "--eps", "0.01"],
            "window": ["analyze", "--window"],
        }
        for name, (family, alpha) in STANDARD_FAMILIES.items():
            family_args = ["--family", family, "--alpha", repr(alpha), "--n", "9"]
            for stage, argv in stages.items():
                code, single = run(tmp_path, f"{stage}_{name}.csv", argv + family_args)
                assert code == EXIT_OK
                assert single.read_bytes() == (outdir / single.name).read_bytes(), single.name
