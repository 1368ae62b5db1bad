"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

import resonatorlab as rl
from conftest import grid_around, kerr_recovery_draws, linewidth_hz, resonator
from oracles import cubic_value, scanned_roots_many
from resonatorlab.cli import main

TWO_PI = 2.0 * np.pi


def criterion(cid: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {cid}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {cid}: {detail}"


def test_criterion_1_design_number_reproduction():
    """Appendix-style design chain reproduces every quoted number within 10%."""
    t0 = time.perf_counter()
    junction = rl.JunctionSpec(
        r_normal=1250.0, width=520e-9, length=760e-9, t_ox=1e-9, epsilon_r=9.0, delta0=180e-6
    )
    _, l_j, _ = rl.junction_electrical(junction)
    array = rl.ArraySpec(
        n_junctions=46,
        junction=junction,
        total_length=207e-6,
        c_per_length=0.057e-15 / 1e-6,
        extra_inductance=78.9e-9 - 46 * l_j,
    )
    report = rl.quarter_wave(array, l_eq_override=67e-9)
    c_loaded = rl.loaded_capacitance_from_frequency(7.02e9, report.l_eq)
    z_loaded = math.sqrt(report.l_eq / c_loaded)
    expected = [
        ("i_c", report.i_c, 220e-9),
        ("l_j", report.l_j, 1.48e-9),
        ("e_j", report.e_j, 111e9),
        ("c_j", report.c_j, 31.5e-15),
        ("e_c", report.e_c, 0.6e9),
        ("ej_over_ec", report.ej_over_ec, 180.0),
        ("plasma", report.plasma_frequency, 23e9),
        ("f_bare", report.f_bare, 8.09e9),
        ("z_eq_loaded", z_loaded, 3000.0),
        ("kerr", report.kerr_estimate, 280e3),
    ]
    errors = {name: abs(value - target) / target for name, value, target in expected}
    elapsed = time.perf_counter() - t0
    worst = max(errors, key=errors.get)
    criterion(
        "1 design-numbers",
        all(e <= 0.10 for e in errors.values()) and elapsed < 1.0,
        f"worst deviation {errors[worst]:.1%} ({worst}), {elapsed:.2f} s",
    )


def test_criterion_2_thin_film_predictions():
    """Thin-film penetration/critical/flux-quantum fields within 3%."""
    t0 = time.perf_counter()
    sqrt2 = math.sqrt(2.0)
    films = [
        rl.FilmSpec(
            thickness=d,
            london_depth=16e-9,
            pippard_length=1600e-9,
            bulk_critical_field=10e-3,
        )
        for d in (35e-9 / sqrt2, 130e-9 / sqrt2)
    ]
    values = [
        ("lambda_eff_1", rl.effective_penetration_depth(films[0]), 129e-9),
        ("lambda_eff_2", rl.effective_penetration_depth(films[1]), 67e-9),
        ("b_crit_1", rl.parallel_critical_field(films[0]), 254e-3),
        ("b_crit_2", rl.parallel_critical_field(films[1]), 36e-3),
        ("b_phi0", rl.flux_quantum_field(520e-9, 1e-9, films[0], films[1]), 42e-3),
    ]
    errors = {name: abs(v - target) / target for name, v, target in values}
    elapsed = time.perf_counter() - t0
    worst = max(errors, key=errors.get)
    criterion(
        "2 thin-film",
        all(e <= 0.03 for e in errors.values()) and elapsed < 1.0,
        f"worst deviation {errors[worst]:.2%} ({worst}), {elapsed:.2f} s",
    )


def test_criterion_3_linear_fit_oracle_suite():
    """200 randomized traces: Q_i within 10%, f_r within kappa_L/20, >= 95%."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    n_draws = 200
    failures = 0
    for i in range(n_draws):
        f_r = rng.uniform(4e9, 8e9)
        q_c = 10 ** rng.uniform(np.log10(500), np.log10(2e5))
        q_i = 10 ** rng.uniform(3, 6)
        res = rl.LinearResonatorParams(
            f_r=f_r,
            kappa_c=TWO_PI * f_r / q_c,
            kappa_int=TWO_PI * f_r / q_i,
            phi0=rng.uniform(-0.4, 0.4),
        )
        env = rl.EnvironmentParams(
            amplitude=rng.uniform(0.5, 1.5),
            alpha=rng.uniform(-np.pi, np.pi),
            tau=rng.uniform(-80e-9, 80e-9),
        )
        grid = grid_around(res, span_linewidths=rng.uniform(10, 25), points=6001)
        trace = rl.generate_linear_trace(
            res, env, grid, -140.0, rl.NoiseSpec(snr_db=rng.uniform(35, 50), seed=1000 + i)
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = rl.fit_linear(trace)
            ok = (
                abs(fit.resonator.q_i - q_i) / q_i <= 0.10
                and abs(fit.resonator.f_r - f_r) <= linewidth_hz(res) / 20.0
            )
        except rl.ResonatorLabError:
            ok = False
        failures += not ok

    # noiseless self-fits are exact to 1e-8 relative
    worst_noiseless = 0.0
    for i in range(10):
        f_r = rng.uniform(4e9, 8e9)
        res = rl.LinearResonatorParams(
            f_r=f_r,
            kappa_c=TWO_PI * f_r / 10 ** rng.uniform(np.log10(500), 5),
            kappa_int=TWO_PI * f_r / 10 ** rng.uniform(3.5, 5.5),
            phi0=rng.uniform(-0.4, 0.4),
        )
        env = rl.EnvironmentParams(
            amplitude=rng.uniform(0.5, 1.5),
            alpha=rng.uniform(-np.pi, np.pi),
            tau=rng.uniform(-60e-9, 60e-9),
        )
        trace = rl.generate_linear_trace(
            res, env, grid_around(res, points=2001), -140.0, rl.NoiseSpec()
        )
        fit = rl.fit_linear(trace)
        for got, true in (
            (fit.resonator.f_r, res.f_r),
            (fit.resonator.kappa_c, res.kappa_c),
            (fit.resonator.kappa_int, res.kappa_int),
            (fit.environment.amplitude, env.amplitude),
        ):
            worst_noiseless = max(worst_noiseless, abs(got - true) / abs(true))

    elapsed = time.perf_counter() - t0
    pass_rate = 1.0 - failures / n_draws
    criterion(
        "3 linear-fit-oracle",
        pass_rate >= 0.95 and worst_noiseless <= 1e-8 and elapsed < 60.0,
        f"pass rate {pass_rate:.1%} ({failures}/{n_draws} failed), "
        f"noiseless worst rel err {worst_noiseless:.2e}, {elapsed:.1f} s",
    )


def test_criterion_4_kerr_suite():
    """Cubic-root validity and oracle parity, K=0 reduction, fit recovery,
    regenerated measured-device scenario."""
    t0 = time.perf_counter()

    # (a) 200 x 200 grid: back-substitution and bracketing-oracle parity
    deltas = np.linspace(-5.0, 5.0, 200)
    xis = np.linspace(0.0, 2.0, 200)
    d, x = np.meshgrid(deltas, xis, indexing="ij")
    roots = rl.photon_cubic_roots(d, x)
    residual = cubic_value(roots, d[..., None], x[..., None])
    scale = np.maximum(0.5, (d[..., None] ** 2 + 0.25) * roots)
    backsub_ok = bool(
        np.all(~np.isfinite(roots) | (np.abs(residual) < 1e-12 * scale))
    )
    counts = np.sum(np.isfinite(roots), axis=-1)
    counts_ok = set(np.unique(counts)) <= {1, 3}
    oracle_mismatches = 0
    for oracle, row in zip(scanned_roots_many(d, x), roots.reshape(-1, 3)):
        mine = row[np.isfinite(row)]
        if oracle.size != mine.size or not np.allclose(
            mine, oracle, rtol=1e-7, atol=1e-12
        ):
            oracle_mismatches += 1

    # (b) K = 0 reduction to the linear model
    rng = np.random.default_rng(14)
    reduction_worst = 0.0
    for _ in range(50):
        f_r = rng.uniform(4e9, 8e9)
        res = rl.LinearResonatorParams(
            f_r=f_r,
            kappa_c=TWO_PI * f_r / 10 ** rng.uniform(2.8, 5),
            kappa_int=TWO_PI * f_r / 10 ** rng.uniform(3, 6),
            phi0=rng.uniform(-0.4, 0.4),
        )
        env = rl.EnvironmentParams(
            amplitude=rng.uniform(0.5, 1.5),
            alpha=rng.uniform(-np.pi, np.pi),
            tau=rng.uniform(-50e-9, 50e-9),
        )
        params = rl.KerrParams(linear=res, environment=env, kerr=0.0, phi=res.phi0)
        f = grid_around(res, span_linewidths=10.0, points=201)
        diff = np.abs(
            rl.model_s21_kerr(params, f, rng.uniform(-150, -100))
            - rl.model_s21_linear(res, env, f)
        )
        reduction_worst = max(reduction_worst, float(diff.max()))

    # (c) fit recovery on 50 synthetic sweeps
    recovery_failures = 0
    for k_true, sweep in kerr_recovery_draws():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                lin = rl.fit_linear(sweep.traces[0])
                fit = rl.fit_kerr(sweep, lin)
            ok = abs(fit.params.kerr - k_true) / k_true <= 0.10
        except rl.ResonatorLabError:
            ok = False
        recovery_failures += not ok
    recovery_rate = 1.0 - recovery_failures / 50.0

    # (d) regenerated measured-device scenario: K consistent with
    # 99.5 +- 0.4 kHz within the fit's reported 3-sigma
    res = resonator(f_r=6.117e9, q_c=1500.0, q_i=15800.0, phi0=0.2)
    env = rl.EnvironmentParams(amplitude=0.95, alpha=0.3, tau=35e-9)
    params = rl.KerrParams(linear=res, environment=env, kerr=99.5e3, phi=0.2)
    grid = grid_around(
        res, span_linewidths=10.0, points=401, center=res.f_r - linewidth_hz(res)
    )
    powers = np.arange(-150.0, -114.9, 2.0)
    sweep = rl.generate_kerr_sweep(params, grid, powers, "lowest", rl.NoiseSpec(snr_db=40, seed=11))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lin = rl.fit_linear(sweep.traces[0])
        fig2 = rl.fit_kerr(sweep, lin)
    fig2_pull = abs(fig2.params.kerr - 99.5e3) / fig2.k_uncertainty

    elapsed = time.perf_counter() - t0
    criterion(
        "4 kerr-suite",
        backsub_ok
        and counts_ok
        and oracle_mismatches == 0
        and reduction_worst < 1e-10
        and recovery_rate >= 0.90
        and fig2_pull <= 3.0
        and elapsed < 300.0,
        f"grid oracle mismatches {oracle_mismatches}, K=0 reduction {reduction_worst:.1e}, "
        f"recovery {recovery_rate:.0%}, device-scenario K "
        f"{fig2.params.kerr / 1e3:.2f}+-{fig2.k_uncertainty / 1e3:.2f} kHz "
        f"({fig2_pull:.1f} sigma from 99.5), {elapsed:.0f} s",
    )


def test_criterion_5_photon_calibration():
    """Single-photon power lands near -133 dBm and inverts exactly."""
    t0 = time.perf_counter()
    res = resonator(f_r=6.117e9, q_c=1500.0, q_i=15800.0)
    psp = rl.single_photon_power(res)
    inverted = rl.photon_number(res, psp)
    elapsed = time.perf_counter() - t0
    criterion(
        "5 photon-calibration",
        abs(psp - (-133.0)) <= 1.5 and abs(inverted - 1.0) <= 1e-10 and elapsed < 1.0,
        f"single-photon power {psp:.2f} dBm, inversion error {abs(inverted - 1):.1e}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_6_field_model_suite():
    """Tuning-curve anchors, monotonicity, and fit recovery with the
    reported parameter degeneracy."""
    t0 = time.perf_counter()
    truth = rl.FieldModelParams(f0=7e9, b_crit=66e-3, b_phi0=102e-3)
    anchor_ok = rl.fr_vs_field(truth, 0.0) == 7e9
    b = np.linspace(0.0, truth.b_max * (1 - 1e-12), 1000)
    monotone_ok = bool(np.all(np.diff(rl.fr_vs_field(truth, b)) < 0.0))
    fields = np.arange(0.0, 0.0601, 0.005)
    points = rl.generate_field_sweep(truth, fields, sigma_f=5e6, seed=5)
    fit = rl.fit_field_sweep(points)
    b_crit_err = abs(fit.params.b_crit - 66e-3)
    b_phi0_err = abs(fit.params.b_phi0 - 102e-3)
    corr = float(fit.correlation[1, 2])
    elapsed = time.perf_counter() - t0
    criterion(
        "6 field-model",
        anchor_ok
        and monotone_ok
        and b_crit_err <= 3e-3
        and b_phi0_err <= 6e-3
        and corr < -0.9
        and elapsed < 10.0,
        f"b_crit err {b_crit_err * 1e3:.2f} mT, b_phi0 err {b_phi0_err * 1e3:.2f} mT, "
        f"corr {corr:.3f}, {elapsed:.1f} s",
    )


def test_criterion_7_end_to_end_determinism(tmp_path, capsys):
    """synth -> CSV -> fit-* produces byte-identical reports across runs."""
    t0 = time.perf_counter()
    pipelines = {
        "linear": (
            ["synth", "linear", "--snr-db", "40", "--seed", "3", "--tau", "40e-9"],
            ["fit-linear"],
        ),
        "power-sweep": (
            [
                "synth", "kerr", "--kerr-hz", "99.5e3", "--snr-db", "40", "--seed", "11",
                "--points", "301", "--span-linewidths", "10", "--f-center", "6.1166e9",
            ],
            ["fit-power-sweep"],
        ),
        "kerr": (
            [
                "synth", "kerr", "--kerr-hz", "99.5e3", "--snr-db", "40", "--seed", "11",
                "--points", "301", "--span-linewidths", "10", "--f-center", "6.1166e9",
            ],
            ["fit-kerr"],
        ),
        "field": (
            ["synth", "field", "--sigma-f", "5e6", "--seed", "5"],
            ["fit-field"],
        ),
    }
    all_identical = True
    details = []
    for name, (synth_args, fit_args) in pipelines.items():
        outputs = []
        for run in ("a", "b"):
            csv = tmp_path / f"{name}_{run}.csv"
            report = tmp_path / f"{name}_{run}.json"
            assert main([*synth_args, "--out-csv", str(csv)]) == 0
            capsys.readouterr()
            assert main([*fit_args, str(csv), "--out", str(report)]) == 0
            capsys.readouterr()
            body = json.loads(report.read_text())
            body["inputs"]["csv"] = "normalized"  # the path differs by design
            outputs.append(json.dumps(body, sort_keys=True))
        identical = outputs[0] == outputs[1]
        all_identical &= identical
        details.append(f"{name}:{'ok' if identical else 'DIFFERS'}")
        # and the raw CSV bytes must match as well
        csv_a = (tmp_path / f"{name}_a.csv").read_bytes()
        csv_b = (tmp_path / f"{name}_b.csv").read_bytes()
        all_identical &= csv_a == csv_b
    elapsed = time.perf_counter() - t0
    criterion(
        "7 determinism",
        all_identical,
        f"{', '.join(details)}, {elapsed:.0f} s",
    )
