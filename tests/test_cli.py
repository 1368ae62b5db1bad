import json
import logging
import math
import warnings

import numpy as np
import pytest

import resonatorlab as rl
from conftest import resonator
from resonatorlab.cli import COMMANDS, main
from resonatorlab.errors import ReportSchemaError
from resonatorlab.io import write_field_csv, write_trace_csv
from resonatorlab.fieldmodel import MIN_FIELD_POINTS
from resonatorlab.linfit import MIN_FIT_SAMPLES, segment_trace
from resonatorlab.reports import validate_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def synth_linear_csv(tmp_path, capsys, **extra):
    path = tmp_path / "trace.csv"
    args = [
        "synth",
        "linear",
        "--out-csv",
        str(path),
        "--snr-db",
        "40",
        "--seed",
        "3",
        "--tau",
        "40e-9",
        "--phi0",
        "0.2",
    ]
    for key, value in extra.items():
        args += [key, str(value)]
    code, doc = run_cli(capsys, *args)
    assert code == 0
    return path


class TestSynthAndFitLinear:
    def test_end_to_end_round_trip(self, tmp_path, capsys):
        csv = synth_linear_csv(tmp_path, capsys)
        code, doc = run_cli(capsys, "fit-linear", str(csv))
        assert code == 0
        validate_report(doc)
        r = doc["results"]
        assert r["f_r_hz"] == pytest.approx(6.117e9, rel=1e-5)
        assert r["q_i"] == pytest.approx(15800, rel=0.05)
        assert r["q_c"] == pytest.approx(1500, rel=0.05)
        assert r["phi0_rad"] == pytest.approx(0.2, abs=0.02)
        assert r["tau_s"] == pytest.approx(40e-9, rel=0.01)
        assert r["n_photons"] > 0
        assert {"magnitude", "phase"} <= set(doc["plot_data"])

    def test_power_flag_overrides_file_value(self, tmp_path, capsys):
        csv = synth_linear_csv(tmp_path, capsys)
        _, doc_file = run_cli(capsys, "fit-linear", str(csv))
        _, doc_flag = run_cli(capsys, "fit-linear", str(csv), "--power-dbm", "-130")
        ratio = doc_flag["results"]["n_photons"] / doc_file["results"]["n_photons"]
        assert ratio == pytest.approx(10.0, rel=1e-6)

    def test_report_bytes_are_deterministic(self, tmp_path, capsys):
        csv = synth_linear_csv(tmp_path, capsys)
        code1 = main(["fit-linear", str(csv), "--out", str(tmp_path / "a.json")])
        code2 = main(["fit-linear", str(csv), "--out", str(tmp_path / "b.json")])
        assert code1 == code2 == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_timestamp_flag_adds_field(self, tmp_path, capsys):
        csv = synth_linear_csv(tmp_path, capsys)
        _, doc = run_cli(capsys, "fit-linear", str(csv), "--timestamp")
        assert "generated_at" in doc


class TestConfig:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_i": 5000.0, "seed": 9}))
        out1 = tmp_path / "t1.csv"
        code, doc = run_cli(
            capsys, "synth", "linear", "--out-csv", str(out1), "--config", str(cfg)
        )
        assert code == 0
        assert doc["inputs"]["q_i"] == 5000.0
        assert doc["inputs"]["seed"] == 9
        out2 = tmp_path / "t2.csv"
        code, doc = run_cli(
            capsys,
            "synth",
            "linear",
            "--out-csv",
            str(out2),
            "--config",
            str(cfg),
            "--q-i",
            "20000",
        )
        assert doc["inputs"]["q_i"] == 20000.0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        code, doc = run_cli(
            capsys, "synth", "linear", "--out-csv", str(tmp_path / "x.csv"), "--config", str(cfg)
        )
        assert code == 2
        assert doc["error"]["type"] == "DataError"

    def test_rerun_with_persisted_config_is_identical(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr_db": 38.0, "seed": 4, "q_i": 12000.0}))
        csvs = []
        for name in ("r1.csv", "r2.csv"):
            path = tmp_path / name
            code, _ = run_cli(
                capsys, "synth", "linear", "--out-csv", str(path), "--config", str(cfg)
            )
            assert code == 0
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize(
        "config",
        [
            {"wing_fraction": None},
            {"max_iterations": "abc"},
            {"max_iterations": 2.5},
            {"segment": "no"},
        ],
    )
    def test_wrong_typed_config_value_is_data_error(self, tmp_path, capsys, config):
        csv = synth_linear_csv(tmp_path, capsys)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, doc = run_cli(capsys, "fit-linear", str(csv), "--config", str(cfg))
        assert code == 2
        assert doc["error"]["type"] == "DataError"

    def test_int_for_float_option_is_kept_as_given(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_i": 5000}))
        code, doc = run_cli(
            capsys, "synth", "linear", "--out-csv", str(tmp_path / "x.csv"), "--config", str(cfg)
        )
        assert code == 0
        assert doc["inputs"]["q_i"] == 5000 and isinstance(doc["inputs"]["q_i"], int)

    @pytest.mark.parametrize(
        "command, flags",
        [
            (
                ["fit-linear", "CSV"],
                ["--power-dbm", "-130", "--wing-fraction", "0.15", "--max-iterations", "50"],
            ),
            (["design"], ["--l-total", "78.9e-9", "--l-eq-override", "67e-9", "--f-loaded", "7.02e9"]),
        ],
    )
    def test_report_inputs_rerun_the_identical_analysis(self, tmp_path, capsys, command, flags):
        csv = synth_linear_csv(tmp_path, capsys)
        command = [str(csv) if a == "CSV" else a for a in command]
        first, again, cfg = (tmp_path / n for n in ("first.json", "again.json", "inputs.json"))
        assert main([*command, *flags, "--out", str(first)]) == 0
        cfg.write_text(json.dumps(json.loads(first.read_text())["inputs"]))
        assert main([*command, "--config", str(cfg), "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()


class TestErrors:
    def test_missing_file_is_data_error(self, capsys):
        code, doc = run_cli(capsys, "fit-linear", "/no/such/file.csv")
        assert code == 2
        assert doc["error"]["exit_code"] == 2

    def test_schema_error_names_columns(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("freq_hz,re\n1e9,0.5\n2e9,0.5\n")
        code, doc = run_cli(capsys, "fit-linear", str(bad))
        assert code == 2
        assert "re" in doc["error"]["message"]

    def test_domain_error_exit_code(self, capsys):
        # a film thicker than the coherence length breaks the thin-film formulas
        code, doc = run_cli(capsys, "predict-field", "--d1", "2e-6")
        assert code == 4
        assert doc["error"]["type"] == "DomainError"

    def test_failed_fit_exit_code(self, tmp_path, capsys):
        csv = synth_linear_csv(tmp_path, capsys)
        code, doc = run_cli(capsys, "fit-linear", str(csv), "--max-iterations", "1")
        assert code == 3
        assert doc["error"]["type"] == "ConvergenceError"

    @pytest.mark.parametrize("command", ["fit-linear", "fit-power-sweep", "fit-kerr"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_iteration_budget_below_1_is_data_error(self, tmp_path, capsys, command, value):
        # refused before any fit runs, not reported as a failed fit
        kind = "linear" if command == "fit-linear" else "kerr"
        path = tmp_path / f"{kind}.csv"
        assert run_cli(capsys, "synth", kind, "--out-csv", str(path), "--points", "201")[0] == 0
        code, doc = run_cli(capsys, command, str(path), "--max-iterations", value)
        assert code == 2
        assert doc["error"]["type"] == "ValueError"
        assert "max_iterations" in doc["error"]["message"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_k_init_is_data_error(self, tmp_path, capsys, value):
        path = tmp_path / "sweep.csv"
        assert run_cli(capsys, "synth", "kerr", "--out-csv", str(path), "--points", "201")[0] == 0
        code, doc = run_cli(capsys, "fit-kerr", str(path), "--k-init", value)
        assert code == 2
        assert "k_init must be finite" in doc["error"]["message"]

    def test_report_breaking_its_schema_is_not_an_input_error(self, monkeypatch):
        # the package builds its reports, so a mismatch is a bug: it gets no
        # exit code of the input-error contract and ends in a traceback
        _, *rest = COMMANDS["predict-field"]
        monkeypatch.setitem(COMMANDS, "predict-field", (lambda opts: ({}, {"bad": 1}), *rest))
        with pytest.raises(ReportSchemaError, match=r"\$\.plot_data\.bad"):
            main(["predict-field"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit-kerr", "sweep.csv", "--no-such-flag", "1"],
            ["fit-kerr", "sweep.csv", "--branch", "middle"],
        ],
        ids=["unknown-flag", "bad-choice"],
    )
    def test_usage_error_is_data_error(self, capsys, argv):
        code, doc = run_cli(capsys, *argv)
        assert code == 2
        assert doc["error"]["type"] == "DataError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["linear", "--q-c", "0"],
            ["linear", "--q-i", "0"],
            ["kerr", "--power-step", "0"],
            ["kerr", "--power-step", "-2.5"],
        ],
        ids=["linear-q-c", "linear-q-i", "kerr-power-step", "kerr-negative-step"],
    )
    def test_non_positive_synth_value_is_data_error(self, tmp_path, capsys, argv):
        out_csv = tmp_path / "x.csv"
        code, doc = run_cli(capsys, "synth", argv[0], "--out-csv", str(out_csv), *argv[1:])
        assert code == 2
        assert doc["error"]["exit_code"] == 2
        assert "must be positive" in doc["error"]["message"]
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "argv, smallest",
        [
            (["linear", "--points", "1"], MIN_FIT_SAMPLES),
            (["linear", "--points", str(MIN_FIT_SAMPLES - 1)], MIN_FIT_SAMPLES),
            (["kerr", "--points", "0"], MIN_FIT_SAMPLES),
            (["field", "--b-points", "0"], MIN_FIELD_POINTS),
            (["field", "--b-points", str(MIN_FIELD_POINTS - 1)], MIN_FIELD_POINTS),
        ],
        ids=["linear-1", "linear-below-min", "kerr-0", "field-0", "field-3"],
    )
    def test_synth_grid_too_small_to_fit_is_data_error(self, tmp_path, capsys, argv, smallest):
        out_csv = tmp_path / "x.csv"
        code, doc = run_cli(capsys, "synth", argv[0], "--out-csv", str(out_csv), *argv[1:])
        assert code == 2
        assert doc["error"]["exit_code"] == 2
        assert f"{argv[1]} must be at least {smallest}" in doc["error"]["message"]
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["linear", "--points", str(MIN_FIT_SAMPLES)],
            ["field", "--b-points", str(MIN_FIELD_POINTS)],
        ],
        ids=["linear", "field"],
    )
    def test_synth_smallest_grid_is_written(self, tmp_path, capsys, argv):
        out_csv = tmp_path / "x.csv"
        code, doc = run_cli(capsys, "synth", argv[0], "--out-csv", str(out_csv), *argv[1:])
        assert code == 0
        assert out_csv.read_text().count("\n") == int(argv[2]) + 1

    def test_smallest_linear_grid_fits(self, tmp_path, capsys):
        # MIN_FIT_SAMPLES leaves estimate_delay enough samples per wing
        csv = synth_linear_csv(tmp_path, capsys, **{"--points": MIN_FIT_SAMPLES})
        code, doc = run_cli(capsys, "fit-linear", str(csv))
        assert code == 0
        validate_report(doc)

    def test_sweep_required_for_fit_kerr(self, tmp_path, capsys):
        csv = synth_linear_csv(tmp_path, capsys)
        code, doc = run_cli(capsys, "fit-kerr", str(csv))
        assert code == 2
        assert "power sweep" in doc["error"]["message"]


class TestDesign:
    def test_reference_device_defaults(self, capsys):
        code, doc = run_cli(
            capsys,
            "design",
            "--l-total",
            "78.9e-9",
            "--l-eq-override",
            "67e-9",
            "--f-loaded",
            "7.02e9",
        )
        assert code == 0
        validate_report(doc)
        r = doc["results"]
        assert r["i_c_a"] == pytest.approx(220e-9, rel=0.05)
        assert r["f_bare_hz"] == pytest.approx(8.09e9, rel=0.02)
        assert r["loaded"]["z_eq_loaded_ohm"] == pytest.approx(3000.0, rel=0.05)
        assert r["l_eq_overridden"] is True

    def test_l_total_below_junctions_rejected(self, capsys):
        code, doc = run_cli(capsys, "design", "--l-total", "1e-9")
        assert code == 2


class TestFieldPipeline:
    def test_synth_fit_field(self, tmp_path, capsys):
        csv = tmp_path / "field.csv"
        code, _ = run_cli(
            capsys, "synth", "field", "--out-csv", str(csv), "--sigma-f", "5e6", "--seed", "5"
        )
        assert code == 0
        code, doc = run_cli(capsys, "fit-field", str(csv))
        assert code == 0
        r = doc["results"]
        assert r["b_crit_t"] == pytest.approx(66e-3, abs=3e-3)
        assert r["b_phi0_t"] == pytest.approx(102e-3, abs=6e-3)
        assert r["correlation_b_crit_b_phi0"] < -0.9

    def test_partial_initial_guess_rejected(self, tmp_path, capsys):
        csv = tmp_path / "field.csv"
        run_cli(capsys, "synth", "field", "--out-csv", str(csv), "--sigma-f", "0")
        code, doc = run_cli(capsys, "fit-field", str(csv), "--f0-init", "7e9")
        assert code == 2


    def test_sweep_without_a_field_above_zero_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "field.csv"
        argv = ["--b-min", "0", "--b-max", "0", "--b-points", str(MIN_FIELD_POINTS)]
        assert run_cli(capsys, "synth", "field", "--out-csv", str(csv), *argv)[0] == 0
        code, doc = run_cli(capsys, "fit-field", str(csv))
        assert code == 2
        assert doc["error"]["type"] == "InsufficientDataError"
        assert "no field above 0 T" in doc["error"]["message"]

    def test_sweep_of_two_distinct_fields_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "field.csv"
        truth = rl.FieldModelParams(7e9, 66e-3, 102e-3)
        write_field_csv(csv, rl.generate_field_sweep(truth, [0.0, 0.0, 0.0, 0.01], 5e6, 1))
        code, doc = run_cli(capsys, "fit-field", str(csv))
        assert code == 2
        assert doc["error"]["type"] == "InsufficientDataError"
        assert "3 distinct fields" in doc["error"]["message"]

class TestPowerSweepAndKerr:
    @pytest.fixture
    def sweep_csv(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code, _ = run_cli(
            capsys,
            "synth",
            "kerr",
            "--out-csv",
            str(path),
            "--kerr-hz",
            "99.5e3",
            "--phi0",
            "0.2",
            "--tau",
            "35e-9",
            "--snr-db",
            "40",
            "--seed",
            "11",
            "--points",
            "301",
            "--span-linewidths",
            "10",
            "--f-center",
            "6.1166e9",
            "--power-step",
            "2.5",
        )
        assert code == 0
        return path

    def test_fit_kerr_on_default_sweep_raises_no_runtime_warning(self, tmp_path, capsys):
        # the default sweep has K = 0, so the fit tries K near 0, where the
        # photon cubic must still give finite roots
        path = tmp_path / "default.csv"
        assert run_cli(capsys, "synth", "kerr", "--out-csv", str(path))[0] == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, doc = run_cli(capsys, "fit-kerr", str(path))
        assert code == 0
        assert doc["results"]["kerr_sigma_hz"] is not None

    def test_sweep_path_raises_no_warning(self, tmp_path, capsys):
        # the 15-power x 2001-point sweep of the benchmark's CLI pipeline,
        # written, sliced and fitted with every warning turned into an error
        path = tmp_path / "synth.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, synth = run_cli(
                capsys,
                "synth",
                "kerr",
                "--out-csv",
                str(path),
                "--kerr-hz",
                "99.5e3",
                "--snr-db",
                "40",
                "--seed",
                "5",
            )
            assert code == 0
            assert (synth["results"]["n_powers"], synth["results"]["n_samples"]) == (15, 2001)
            code, table = run_cli(capsys, "fit-power-sweep", str(path))
            assert code == 0
            code, kerr = run_cli(capsys, "fit-kerr", str(path))
            assert code == 0
        assert len(table["results"]["slices"]) == 15
        assert kerr["results"]["kerr_hz"] == pytest.approx(99.5e3, rel=0.1)

    def test_fit_power_sweep_table(self, sweep_csv, capsys):
        code, doc = run_cli(capsys, "fit-power-sweep", str(sweep_csv))
        assert code == 0
        validate_report(doc)
        slices = doc["results"]["slices"]
        assert len(slices) == 15
        powers = [s["power_dbm"] for s in slices]
        assert powers == sorted(powers)
        # q_i flat within uncertainty below one photon
        low = [s for s in slices if s["n_photons"] is not None and s["n_photons"] < 1.0]
        assert len(low) >= 5
        for s in low:
            assert abs(s["q_i"] - 15800) < 4 * s["q_i_sigma"] + 0.02 * 15800

    def test_cli_adds_no_numerics(self, sweep_csv, capsys):
        # per-slice CLI outputs equal direct library calls on the same slices
        from resonatorlab.io import parse_trace_csv

        _, doc = run_cli(capsys, "fit-power-sweep", str(sweep_csv))
        sweep = parse_trace_csv(sweep_csv)
        direct = rl.fit_linear(sweep.traces[0])
        first = doc["results"]["slices"][0]
        assert first["f_r_hz"] == direct.resonator.f_r
        assert first["kappa_int_rad_s"] == direct.resonator.kappa_int
        assert first["n_photons"] == direct.n_photons

    def test_global_calibration_flag(self, sweep_csv, capsys):
        from resonatorlab.io import parse_trace_csv

        _, per_slice = run_cli(capsys, "fit-power-sweep", str(sweep_csv))
        _, global_cal = run_cli(
            capsys, "fit-power-sweep", str(sweep_csv), "--global-calibration"
        )
        assert per_slice["results"]["photon_calibration"] == "per_slice"
        assert global_cal["results"]["photon_calibration"] == "global"
        n1 = [s["n_photons"] for s in per_slice["results"]["slices"]]
        n2 = [s["n_photons"] for s in global_cal["results"]["slices"]]
        assert n1 != n2
        # per slice: each slice's own fit; global: the lowest slice's resonator
        sweep = parse_trace_csv(sweep_csv)
        fits = [rl.fit_linear(t) for t in sweep.traces]
        assert n1 == [f.n_photons for f in fits]
        reference = fits[0].resonator
        assert n2 == [rl.photon_number(reference, t.drive_power) for t in sweep.traces]
        assert n1[0] == n2[0]

    def test_fit_kerr_recovers_coefficient(self, sweep_csv, capsys):
        code, doc = run_cli(capsys, "fit-kerr", str(sweep_csv))
        assert code == 0
        validate_report(doc)
        r = doc["results"]
        assert r["kerr_hz"] == pytest.approx(99.5e3, rel=0.03)
        assert r["kerr_sigma_hz"] > 0
        assert "dip_trajectory" in doc["plot_data"]
        assert r["stage1"]["stage1_slices"] == [-150.0]

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_free_all_option_is_gone(self, sweep_csv, tmp_path, capsys, how):
        # fit-kerr always refits the linear parameters, so there is no mode to pick
        argv = ["fit-kerr", str(sweep_csv)]
        if how == "flag":
            argv.append("--free-all")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"free_all": True}))
            argv += ["--config", str(cfg)]
        code, doc = run_cli(capsys, *argv)
        assert code == 2
        assert doc["error"]["type"] == "DataError"

    def test_stage1_warns_when_the_lowest_slice_holds_photons(self, tmp_path, capsys, caplog):
        path = tmp_path / "high.csv"
        code, _ = run_cli(
            capsys, "synth", "kerr", "--out-csv", str(path), "--snr-db", "40",
            "--points", "301", "--power-min", "-128", "--power-max", "-123",
        )
        assert code == 0
        with caplog.at_level(logging.WARNING, logger="resonatorlab"):
            code, doc = run_cli(capsys, "fit-kerr", str(path))
        assert code == 0
        assert "lowest sweep power already drives" in caplog.text
        assert doc["results"]["stage1"]["n_photons"] > 1.0

    def test_fit_flags_reach_the_report_warnings(self, tmp_path, capsys):
        path = tmp_path / "narrow.csv"
        code, _ = run_cli(
            capsys, "synth", "kerr", "--out-csv", str(path), "--snr-db", "40",
            "--points", "301", "--span-linewidths", "3", "--power-max", "-140",
        )
        assert code == 0
        flag = "trace span below 5 linewidths; parameters may be poorly constrained"
        # the flag reaches the reports only, not Python's warnings
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, sweep_doc = run_cli(capsys, "fit-power-sweep", str(path))
            _, kerr_doc = run_cli(capsys, "fit-kerr", str(path))
        assert [str(w.message) for w in caught] == []
        slices = sweep_doc["results"]["slices"]
        assert all(s["flags"] == [flag] for s in slices)
        assert sweep_doc["warnings"] == [f"slices[{i}]: {flag}" for i in range(len(slices))]
        assert kerr_doc["warnings"] == [f"stage1: {flag}"]

    def test_report_without_flags_has_no_warnings(self, sweep_csv, capsys):
        _, doc = run_cli(capsys, "fit-power-sweep", str(sweep_csv))
        assert all(s["flags"] == [] for s in doc["results"]["slices"])
        assert "warnings" not in doc


class TestSegmentation:
    def test_two_dips_found_and_fitted(self, tmp_path, capsys):
        res1 = resonator(f_r=6.05e9, q_c=1200.0, q_i=12000.0)
        res2 = resonator(f_r=6.25e9, q_c=1800.0, q_i=20000.0)
        env = rl.EnvironmentParams()
        f = np.linspace(5.95e9, 6.35e9, 8001)
        values = rl.model_s21_linear(res1, env, f) * rl.model_s21_linear(res2, env, f)
        trace = rl.FrequencyTrace(frequencies=f, values=values, drive_power=-140.0)
        segments = segment_trace(trace)
        assert len(segments) == 2
        csv = tmp_path / "two_dips.csv"
        write_trace_csv(csv, trace)
        code, doc = run_cli(capsys, "fit-linear", str(csv), "--segment")
        assert code == 0
        dips = doc["results"]["dips"]
        assert len(dips) == 2
        assert dips[0]["f_r_hz"] == pytest.approx(6.05e9, rel=1e-5)
        assert dips[1]["f_r_hz"] == pytest.approx(6.25e9, rel=1e-5)
        assert dips[0]["q_i"] == pytest.approx(12000, rel=0.05)
        assert dips[1]["q_i"] == pytest.approx(20000, rel=0.05)

    def test_no_dips_is_data_error(self, tmp_path, capsys):
        f = np.linspace(5e9, 6e9, 2001)
        trace = rl.FrequencyTrace(frequencies=f, values=np.ones(2001), drive_power=-140.0)
        csv = tmp_path / "flat.csv"
        write_trace_csv(csv, trace)
        code, doc = run_cli(capsys, "fit-linear", str(csv), "--segment")
        assert code == 2


def test_help_without_command(capsys):
    assert main([]) == 2


def test_predict_field_lead_defaults_are_nominal_over_sqrt2():
    options = COMMANDS["predict-field"][2]
    assert options["d1"][1] == 35e-9 / math.sqrt(2.0)
    assert options["d2"][1] == 130e-9 / math.sqrt(2.0)
