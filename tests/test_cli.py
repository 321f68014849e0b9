import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kerrcat
from kerrcat import cli
from kerrcat.cli import ExperimentConfig, run_custom, run_figure, run_validate


def write_config(path, **overrides):
    base = {
        "l": 1,
        "nu": 20.0,
        "t_points": 201,
        "moment_powers": [2],
        "out_dir": str(path.parent / "out"),
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return path


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.json")
        cfg = ExperimentConfig.from_file(cfg_path)
        assert cfg.l == 1 and cfg.moment_powers == [2]

    def test_unknown_key_rejected_with_name(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"l": 1, "mement_powers": [2]}))
        with pytest.raises(ValueError, match="mement_powers"):
            ExperimentConfig.from_file(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("l = 1")
        with pytest.raises(ValueError, match="not valid JSON"):
            ExperimentConfig.from_file(path)

    def test_empty_observables_rejected(self, tmp_path):
        path = write_config(tmp_path / "empty.json", moment_powers=[])
        with pytest.raises(ValueError, match="empty observable list"):
            ExperimentConfig.from_file(path)

    def test_inconsistent_entropy_pair(self, tmp_path):
        path = write_config(tmp_path / "pair.json", entropy_zeta=2 / 3, entropy_eta=3.0)
        with pytest.raises(ValueError, match="1/zeta"):
            ExperimentConfig.from_file(path)

    def test_bad_time_window(self, tmp_path):
        path = write_config(tmp_path / "w.json", t_start=0.7, t_stop=0.2)
        with pytest.raises(ValueError, match="t_start"):
            ExperimentConfig.from_file(path)


class TestRunCustom:
    def test_moment_and_entropy_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            l=2, nu=10.0, t_points=101, moment_powers=[2],
            entropy_zeta=2 / 3, entropy_eta=2.0, out_dir=str(tmp_path / "o"),
        )
        run_custom(cfg)
        files = sorted(f.name for f in (tmp_path / "o").iterdir())
        assert files == ["custom_l2h0_nu10_renyi.csv", "custom_l2h0_nu10_x2.csv"]
        text = (tmp_path / "o" / "custom_l2h0_nu10_x2.csv").read_text()
        assert text.splitlines()[0].startswith("# observable=x^2")

    def test_three_lobe_portrait_at_third_revival(self, tmp_path):
        # coherent state at T_rev/3 splits into three sub-packets
        from kerrcat import PhaseSpaceField

        cfg = ExperimentConfig(
            l=1, nu=20.0, wigner_times=[1 / 3], wigner_points=161,
            out_dir=str(tmp_path / "w"),
        )
        run_custom(cfg)
        (csv_file,) = sorted((tmp_path / "w").glob("*wigner*csv"))
        rows = [ln for ln in csv_file.read_text().splitlines() if not ln.startswith("#")]
        assert rows[0] == "x,p,W"
        assert len(rows) == 1 + 161 * 161

    def test_extrapolated_five_cat_schedule(self, tmp_path):
        # order-5 cat, power 10: bursts on the fiftieths
        from kerrcat import (
            KerrParams,
            SuperpositionSpec,
            TimeGrid,
            detect_bursts,
            match_report,
            moment_series,
            visible_burst_times,
        )

        grid = TimeGrid.uniform(3001, 0.0, 0.5)
        series = moment_series(SuperpositionSpec(5, 0, 50.0), "x", 10, KerrParams(1.0), grid)
        report = match_report(
            detect_bursts(series), visible_burst_times(5, 10, (0.0, 0.5)), tol=2 * grid.step
        )
        assert report.complete
        assert len(report.matched) == 25
        assert Fraction(1, 50) in visible_burst_times(5, 10)


class TestFigureCommand:
    def test_fig2_writes_provenance(self, tmp_path):
        run_figure("fig2", out_dir=tmp_path, grid_points=401)
        text = (tmp_path / "fig2_x4_coherent_nu100.csv").read_text()
        head = text.splitlines()[:8]
        assert any("nu=100" in ln for ln in head)
        assert any("observable=x^4" in ln for ln in head)

    def test_fig5_matrix_output(self, tmp_path):
        run_figure("fig5", out_dir=tmp_path, grid_points=101)
        mat = (tmp_path / "fig5_wigner_cat2_eighth.dat").read_text().splitlines()
        assert mat[0].split()[0] == "101"
        assert len(mat) == 102

    def test_determinism(self, tmp_path):
        run_figure("fig6", out_dir=tmp_path / "a", grid_points=201)
        run_figure("fig6", out_dir=tmp_path / "b", grid_points=201)
        first = (tmp_path / "a" / "fig6_x2_cat2_nu100.csv").read_bytes()
        second = (tmp_path / "b" / "fig6_x2_cat2_nu100.csv").read_bytes()
        assert first == second

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_every_figure_file(self, tmp_path, capsys):
        assert cli.main(["figure", "all", "--grid-points", "41", "--out-dir", str(tmp_path)]) == 0
        portraits = [
            "fig1_wigner_coherent_quarter", "fig4a_wigner_cat2_t0", "fig4b_wigner_cat2_quarter",
            "fig5_wigner_cat2_eighth", "fig8a_wigner_cat3_t0", "fig8b_wigner_cat3_ninth",
            "fig9_wigner_cat3_eighteenth",
        ]
        moments = [
            "fig10b_x6_cat3_nu100", "fig10c_x9_cat3_nu100", "fig11_x8_cat4_nu100",
            "fig2_x4_coherent_nu100", "fig6_x2_cat2_nu100", "fig7a_x4_cat2_nu100",
            "fig7b_x6_cat2_nu100", "fig9_x3_cat3_nu100",
        ]
        renyi = ["fig10_renyi_cat3_nu30", "fig3_renyi_coherent_nu35", "fig7c_renyi_cat2_nu30"]
        # provenance lines, column header, then one row per sample
        want = {f"{s}.csv": 2 + 41 * 41 for s in portraits}
        want.update({f"{s}.dat": 1 + 41 for s in portraits})
        want.update({f"{s}.csv": 8 + 41 for s in moments})
        want.update({f"{s}.csv": 12 + 41 for s in renyi})
        assert len(want) == 25
        got = {f.name: len(f.read_text().splitlines()) for f in tmp_path.iterdir()}
        assert sorted(got) == sorted(want)
        assert got == want


class TestMain:
    def test_figure_exit_codes(self, tmp_path):
        assert cli.main(["figure", "fig2", "--out-dir", str(tmp_path), "--grid-points", "301"]) == 0
        assert cli.main(["figure", "fig99", "--out-dir", str(tmp_path)]) == 2

    def test_zero_grid_points_is_not_the_default(self, tmp_path, capsys):
        assert cli.main(["figure", "fig2", "--out-dir", str(tmp_path), "--grid-points", "0"]) == 2
        assert "error: --grid-points" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("points", ["1", "-5"])
    def test_too_few_grid_points_names_the_flag(self, tmp_path, capsys, points):
        assert cli.main(["figure", "fig2", "--out-dir", str(tmp_path), "--grid-points", points]) == 2
        assert "error: --grid-points" in capsys.readouterr().err

    def test_custom_config_error_reported(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json", moment_powers=[])
        assert cli.main(["custom", str(path)]) == 2
        assert "empty observable list" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("t_points", 201.5), ("nu", "20"), ("moment_powers", 2),
        ("l", True), ("moment_powers", [True]),
    ])
    def test_custom_wrong_type_reported(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path / "typed.json", **{field: value})
        assert cli.main(["custom", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{field}'" in err

    @pytest.mark.parametrize("field,value", [
        ("l", 10**21), ("l", 1e21), ("t_points", 10**20), ("wigner_points", -2**63 - 1),
    ])
    def test_custom_integer_beyond_int64_names_the_field(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path / "huge.json", **{field: value})
        assert cli.main(["custom", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field '{field}': expected an integer within int64")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,text", [
        ("nu", "1e400"), ("theta", "NaN"), ("t_stop", "-Infinity"), ("wigner_times", "[0.25, NaN]"),
    ])
    def test_custom_non_finite_number_names_the_field(self, tmp_path, capsys, field, text):
        # json.dumps cannot write these as a user would, so the number goes in as text
        path = write_config(tmp_path / "nonfinite.json", **{field: "@"})
        path.write_text(path.read_text().replace('"@"', text))
        assert cli.main(["custom", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field '{field}': expected a ") and "finite" in err

    @pytest.mark.parametrize("overrides,argv,name", [
        ({"n_max": -3}, None, "field 'n_max'"),
        ({"wigner_points": 1, "wigner_times": [0.25]}, None, "field 'wigner_points'"),
        ({}, ["figure", "fig2", "--n-max", "-1"], "--n-max"),
    ], ids=["n_max", "wigner_points", "--n-max"])
    def test_bad_sizes_name_the_field(self, tmp_path, capsys, overrides, argv, name):
        path = write_config(tmp_path / "sizes.json", **overrides)
        argv = argv or ["custom", str(path)]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,value,message", [
        ("moment_powers", [2, 2], "2 and 2"),
        ("moment_powers", [4, 2, 4.0], "4 and 4.0"),
        ("wigner_times", [0.125, 0.1250001], "0.125 and 0.1250001"),
    ])
    def test_custom_colliding_outputs_rejected(self, tmp_path, capsys, field, value, message):
        path = write_config(tmp_path / "twice.json", **{field: value})
        assert cli.main(["custom", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field '{field}': {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides,message", [
        ({"l": 0}, "field 'l': must be a positive integer"),
        ({"l": 2, "h": 2}, "field 'h': must be an integer in 0..l-1"),
        ({"h": -1}, "field 'h': must be an integer in 0..l-1"),
        ({"nu": -1.0}, "field 'nu': must be nonnegative"),
        ({"entropy_zeta": 0.7, "entropy_eta": 3.0},
         "fields 'entropy_zeta'/'entropy_eta': pair must satisfy 1/zeta + 1/eta = 2"),
        ({"entropy_zeta": -0.5, "entropy_eta": 0.25},
         "fields 'entropy_zeta'/'entropy_eta': orders must be positive"),
    ], ids=["l", "h-above", "h-below", "nu", "pair", "negative-order"])
    def test_custom_bad_values_name_the_field(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path / "bad.json", **overrides)
        assert cli.main(["custom", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    def test_custom_integral_floats_taken_as_integers(self, tmp_path, capsys):
        path = write_config(tmp_path / "floats.json", l=2.0, t_points=41.0, n_max=80.0,
                            moment_powers=[2.0])
        assert cli.main(["custom", str(path)]) == 0
        data = (tmp_path / "out" / "custom_l2h0_nu20_x2.csv").read_text().splitlines()
        assert len([row for row in data if not row.startswith("#")]) == 1 + 41

    def test_validate_passes(self):
        assert run_validate() == 0

    def test_validate_rejects_a_conjugated_propagator(self, monkeypatch, capsys):
        # evolve turned the wrong way lands on the component sum of -j/q
        orig = kerrcat.evolution._phase_factors
        monkeypatch.setattr(kerrcat.evolution, "_phase_factors",
                            lambda dim, chi, t: np.conj(orig(dim, chi, t)))
        assert cli.main(["validate"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert any(line.startswith("[FAIL] fractional-revival superpositions: analytic-state fidelity")
                   for line in out)

    def test_validate_records_an_error_and_runs_on(self, monkeypatch, capsys):
        def broken(field):
            raise ValueError("no field to count")

        monkeypatch.setattr(cli, "count_lobes", broken)
        assert cli.main(["validate"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "[FAIL] Wigner field basics: ValueError: no field to count" in out
        assert sum(line.startswith("[PASS] ") for line in out) == 12
        assert out[-1] == "12/13 checks passed"


def test_write_encodes_in_slices(tmp_path):
    # a 9.6 MB portrait-sized text: encoding all of it at once would peak 9.6 MB above it
    text = "-0.12345678901234567,3.4567890123456789,1.2345678901234567e-17\n" * 150_000
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli._write(path, text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert path.read_bytes() == text.encode()


def test_no_scipy_on_the_run_path(tmp_path):
    # a fresh interpreter imports the package and runs each kind of request:
    # validate (moments, bursts, entropy, Wigner fields and lobes), a portrait
    # and a Renyi figure through the writer, and the minima and dip detectors
    script = f"""
import sys
import kerrcat, kerrcat.cli
from kerrcat import (KerrParams, RenyiPair, SuperpositionSpec, TimeGrid, detect_dips, detect_minima,
                     entropy_series)
from kerrcat.cli import main
assert main(["validate"]) == 0
for argv in (["figure", "fig1", "--grid-points", "61"], ["figure", "fig3", "--grid-points", "101"]):
    assert main(argv + ["--out-dir", {str(tmp_path)!r}]) == 0
series = entropy_series(SuperpositionSpec(2, 0, 10.0), KerrParams(1.0), TimeGrid.uniform(201, 0, 0.5),
                        RenyiPair(2 / 3, 2.0))
detect_minima(series), detect_dips(series)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(kerrcat.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
