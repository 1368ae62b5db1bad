"""Command-line frontend.

Subcommands: ``fit-linear``, ``fit-power-sweep``, ``fit-kerr``,
``fit-field``, ``design``, ``predict-field`` and ``synth``. Every run
writes one JSON report (stdout or ``--out``); logs go to stderr only.
Options resolve as flag > config file > built-in default. Exit codes:
0 success, 2 schema/data error, 3 convergence error, 4 domain error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .core import EnvironmentParams, FrequencyTrace, LinearResonatorParams, PowerSweep
from .designer import ArraySpec, JunctionSpec, loaded_capacitance_from_frequency, quarter_wave
from .errors import DataError, ResonatorLabError
from .fieldmodel import (
    FieldModelParams,
    FilmSpec,
    effective_penetration_depth,
    fit_field_sweep,
    flux_quantum_field,
    fr_vs_field,
    parallel_critical_field,
)
from .io import parse_field_csv, parse_trace_csv, write_field_csv, write_trace_csv
from .kerrfit import (
    BRANCH_RULES,
    KerrFitOptions,
    KerrParams,
    combine_linear_fits,
    fit_kerr,
    model_s21_kerr,
    single_photon_power,
)
from .linfit import (
    FitOptions,
    LinearFitResult,
    fit_linear,
    model_s21_linear,
    photon_number,
    segment_trace,
)
from .reports import (
    dump_report,
    error_report,
    exit_code_for,
    make_report,
    plot_group,
    series,
)
from .synth import NoiseSpec, generate_field_sweep, generate_kerr_sweep, generate_linear_trace

logger = logging.getLogger("resonatorlab")

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


def _q_sigma(q: float, f_r: float, kappa: float, cov: np.ndarray, kappa_index: int) -> float | None:
    """1-sigma on ``Q = 2 pi f_r / kappa`` from the fit covariance."""
    if kappa <= 0.0 or not math.isfinite(q):
        return None
    dq_df = TWO_PI / kappa
    dq_dk = -q / kappa
    var = (
        dq_df**2 * cov[0, 0]
        + dq_dk**2 * cov[kappa_index, kappa_index]
        + 2.0 * dq_df * dq_dk * cov[0, kappa_index]
    )
    return math.sqrt(max(var, 0.0))


def _linear_payload(fit: LinearFitResult) -> dict:
    res, env, u = fit.resonator, fit.environment, fit.uncertainties
    cov = np.asarray(fit.covariance)
    return {
        "f_r_hz": res.f_r,
        "f_r_sigma_hz": u["f_r"],
        "kappa_c_rad_s": res.kappa_c,
        "kappa_c_sigma_rad_s": u["kappa_c"],
        "kappa_c_over_2pi_hz": res.kappa_c / TWO_PI,
        "kappa_int_rad_s": res.kappa_int,
        "kappa_int_sigma_rad_s": u["kappa_int"],
        "kappa_int_over_2pi_hz": res.kappa_int / TWO_PI,
        "q_c": res.q_c,
        "q_c_sigma": _q_sigma(res.q_c, res.f_r, res.kappa_c, cov, 1),
        "q_i": res.q_i,
        "q_i_sigma": _q_sigma(res.q_i, res.f_r, res.kappa_int, cov, 2),
        "q_l": res.q_l,
        "phi0_rad": res.phi0,
        "phi0_sigma_rad": u["phi0"],
        "amplitude": env.amplitude,
        "amplitude_sigma": u["amplitude"],
        "alpha_rad": env.alpha,
        "alpha_sigma_rad": u["alpha"],
        "tau_s": env.tau,
        "tau_sigma_s": u["tau"],
        "n_photons": fit.n_photons,
        "single_photon_power_dbm": single_photon_power(res),
        "residual_rms": fit.residual_rms,
        "flags": list(fit.flags),
    }


def _require_single_trace(data, power_override) -> FrequencyTrace:
    if isinstance(data, PowerSweep):
        raise DataError(
            "file contains a power sweep; use fit-power-sweep (or fit-kerr) instead"
        )
    if power_override is not None:
        return FrequencyTrace(
            frequencies=data.frequencies,
            values=data.values,
            drive_power=power_override,
            metadata=dict(data.metadata),
        )
    return data


def _require_sweep(data) -> PowerSweep:
    if not isinstance(data, PowerSweep):
        raise DataError(
            "file holds a single trace; a power sweep needs a power_dbm column "
            "with at least two distinct powers"
        )
    return data


def _trace_plots(trace: FrequencyTrace, model_values: np.ndarray) -> dict:
    f = trace.frequencies
    return {
        "magnitude": plot_group(
            "freq_hz",
            f,
            series("data_mag", np.abs(trace.values)),
            series("model_mag", np.abs(model_values)),
        ),
        "phase": plot_group(
            "freq_hz",
            f,
            series("data_phase_rad", np.angle(trace.values)),
            series("model_phase_rad", np.angle(model_values)),
        ),
    }


def _fit_options(opts) -> FitOptions:
    return FitOptions(
        wing_fraction=opts["wing_fraction"], max_iterations=opts["max_iterations"]
    )


def _handle_fit_linear(opts) -> tuple[dict, dict]:
    data = parse_trace_csv(opts["csv"])
    trace = _require_single_trace(data, opts["power_dbm"])
    fit_opts = _fit_options(opts)
    if opts["segment"]:
        windows = segment_trace(
            trace, opts["prominence_db"], opts["window_linewidths"], opts["baseline_percentile"]
        )
        if not windows:
            raise DataError(
                f"no dips at least {opts['prominence_db']} dB below the median background"
            )
        fits = [fit_linear(w, fit_opts) for w in windows]
        results = {"dips": [_linear_payload(f) for f in fits]}
        plots = {}
        for i, (w, f) in enumerate(zip(windows, fits)):
            model = model_s21_linear(f.resonator, f.environment, w.frequencies)
            plots[f"dip_{i}_magnitude"] = plot_group(
                "freq_hz",
                w.frequencies,
                series("data_mag", np.abs(w.values)),
                series("model_mag", np.abs(model)),
            )
        return results, plots
    fit = fit_linear(trace, fit_opts)
    model = model_s21_linear(fit.resonator, fit.environment, trace.frequencies)
    return _linear_payload(fit), _trace_plots(trace, model)


def _handle_fit_power_sweep(opts) -> tuple[dict, dict]:
    sweep = _require_sweep(parse_trace_csv(opts["csv"]))
    fit_opts = _fit_options(opts)
    fits = [fit_linear(t, fit_opts) for t in sweep.traces]
    reference = fits[0].resonator
    slices = []
    for trace, fit in zip(sweep.traces, fits):
        payload = _linear_payload(fit)
        if opts["global_calibration"]:
            payload["n_photons"] = photon_number(reference, trace.drive_power)
        payload["power_dbm"] = trace.drive_power
        slices.append(payload)
    results = {
        "photon_calibration": "global" if opts["global_calibration"] else "per_slice",
        "slices": slices,
    }
    plots = {
        "qi_vs_photons": plot_group(
            "n_photons",
            [s["n_photons"] for s in slices],
            series("q_i", [s["q_i"] for s in slices]),
            series("q_i_sigma", [s["q_i_sigma"] for s in slices]),
        ),
        "fr_vs_power": plot_group(
            "power_dbm",
            [s["power_dbm"] for s in slices],
            series("f_r_hz", [s["f_r_hz"] for s in slices]),
        ),
    }
    return results, plots


def _stage1_linear(sweep: PowerSweep, opts) -> tuple[LinearFitResult, dict]:
    """Linear parameters from the low-power end of the sweep.

    Default: the lowest-power slice only (pooling higher slices imprints the
    Kerr shift on the pooled resonance). With ``stage1_max_photons`` set, all
    slices below that occupation are fitted and inverse-variance combined.
    """
    fit_opts = _fit_options(opts)
    cut = opts["stage1_max_photons"]
    if cut is None:
        fit = fit_linear(sweep.traces[0], fit_opts)
        if fit.n_photons is not None and fit.n_photons > 1.0:
            logger.warning(
                "lowest sweep power already drives %.2f photons; the stage-1 "
                "linear fit may be biased by the nonlinearity",
                fit.n_photons,
            )
        return fit, {"stage1_slices": [sweep.traces[0].drive_power]}
    fits, used = [], []
    for trace in sweep.traces:
        fit = fit_linear(trace, fit_opts)
        if fit.n_photons is not None and fit.n_photons < cut:
            fits.append(fit)
            used.append(trace.drive_power)
    if not fits:
        raise DataError(
            f"no sweep slice sits below {cut} photons; lower the drive power range"
        )
    return combine_linear_fits(fits), {"stage1_slices": used}


def _handle_fit_kerr(opts) -> tuple[dict, dict]:
    sweep = _require_sweep(parse_trace_csv(opts["csv"]))
    stage1, stage1_info = _stage1_linear(sweep, opts)
    kerr_opts = KerrFitOptions(
        branch=opts["branch"],
        k_init=opts["k_init"],
        mask_bistable=opts["mask_bistable"],
        free_all=opts["free_all"],
        max_iterations=opts["max_iterations"],
    )
    fit = fit_kerr(sweep, stage1, kerr_opts)
    params = fit.params
    results = {
        "kerr_hz": params.kerr,
        "kerr_sigma_hz": fit.k_uncertainty,
        "phi_rad": params.phi,
        "phi_sigma_rad": fit.phi_uncertainty,
        "branch": opts["branch"],
        "residual_rms": fit.residual_rms,
        "stage1": {**_linear_payload(stage1), **stage1_info},
    }
    powers = [t.drive_power for t in sweep.traces]
    freqs = sweep.frequencies
    dip_data, dip_model = [], []
    for trace, p in zip(sweep.traces, powers):
        model = model_s21_kerr(params, freqs, p, opts["branch"])
        dip_data.append(freqs[int(np.argmin(np.abs(trace.values)))])
        dip_model.append(freqs[int(np.argmin(np.abs(model)))])
    top = sweep.traces[-1]
    top_model = model_s21_kerr(params, freqs, top.drive_power, opts["branch"])
    plots = {
        "dip_trajectory": plot_group(
            "power_dbm",
            powers,
            series("dip_freq_data_hz", dip_data),
            series("dip_freq_model_hz", dip_model),
        ),
        "highest_power_slice": plot_group(
            "freq_hz",
            freqs,
            series("data_mag", np.abs(top.values)),
            series("model_mag", np.abs(top_model)),
        ),
    }
    return results, plots


def _handle_fit_field(opts) -> tuple[dict, dict]:
    points = parse_field_csv(opts["csv"])
    initial = None
    if opts["f0_init"] is not None or opts["b_crit_init"] is not None or opts["b_phi0_init"] is not None:
        if None in (opts["f0_init"], opts["b_crit_init"], opts["b_phi0_init"]):
            raise ValueError("provide all three of --f0-init, --b-crit-init, --b-phi0-init or none")
        initial = FieldModelParams(
            f0=opts["f0_init"], b_crit=opts["b_crit_init"], b_phi0=opts["b_phi0_init"]
        )
    fit = fit_field_sweep(points, initial)
    p = fit.params
    results = {
        "f0_hz": p.f0,
        "f0_sigma_hz": fit.uncertainties[0],
        "b_crit_t": p.b_crit,
        "b_crit_sigma_t": fit.uncertainties[1],
        "b_phi0_t": p.b_phi0,
        "b_phi0_sigma_t": fit.uncertainties[2],
        "correlation": fit.correlation,
        "correlation_b_crit_b_phi0": float(fit.correlation[1, 2]),
        "residual_rms_weighted": fit.residual_rms,
    }
    fields = np.array([pt.field for pt in points])
    dense = np.linspace(0.0, fields.max(), 200)
    plots = {
        "tuning_points": plot_group(
            "field_t",
            fields,
            series("fr_data_hz", [pt.resonance for pt in points]),
            series("fr_sigma_hz", [pt.sigma for pt in points]),
            series("fr_model_hz", np.atleast_1d(fr_vs_field(p, fields))),
        ),
        "tuning_curve": plot_group(
            "field_t", dense, series("fr_model_hz", np.atleast_1d(fr_vs_field(p, dense)))
        ),
    }
    return results, plots


def _handle_design(opts) -> tuple[dict, dict]:
    junction = JunctionSpec(
        r_normal=opts["r_normal"],
        width=opts["width"],
        length=opts["length"],
        t_ox=opts["t_ox"],
        epsilon_r=opts["epsilon_r"],
        delta0=opts["delta0_ev"],
    )
    if opts["l_total"] is not None and opts["extra_inductance"] is not None:
        raise ValueError("give either --l-total or --extra-inductance, not both")
    extra = opts["extra_inductance"] or 0.0
    if opts["l_total"] is not None:
        from .designer import junction_electrical

        _, l_j, _ = junction_electrical(junction)
        extra = opts["l_total"] - opts["n_junctions"] * l_j
        if extra < 0.0:
            raise ValueError(
                f"--l-total {opts['l_total']} H is below the junction contribution "
                f"{opts['n_junctions'] * l_j} H"
            )
    array = ArraySpec(
        n_junctions=opts["n_junctions"],
        junction=junction,
        total_length=opts["array_length"],
        c_per_length=opts["c_per_length"],
        extra_inductance=extra,
    )
    report = quarter_wave(array, l_eq_override=opts["l_eq_override"])
    results = {
        "i_c_a": report.i_c,
        "l_j_h": report.l_j,
        "e_j_hz": report.e_j,
        "c_j_f": report.c_j,
        "e_c_hz": report.e_c,
        "ej_over_ec": report.ej_over_ec,
        "plasma_frequency_hz": report.plasma_frequency,
        "l_total_h": report.l_total,
        "l_eq_h": report.l_eq,
        "l_eq_default_mapping_h": 8.0 / math.pi**2 * report.l_total,
        "l_eq_overridden": opts["l_eq_override"] is not None,
        "c_eq_f": report.c_eq,
        "f_bare_hz": report.f_bare,
        "z_eq_ohm": report.z_eq,
        "kerr_estimate_hz": report.kerr_estimate,
    }
    if opts["f_loaded"] is not None:
        c_loaded = loaded_capacitance_from_frequency(opts["f_loaded"], report.l_eq)
        results["loaded"] = {
            "f_loaded_hz": opts["f_loaded"],
            "c_eq_loaded_f": c_loaded,
            "z_eq_loaded_ohm": math.sqrt(report.l_eq / c_loaded),
        }
    n_values = np.arange(1, 2 * opts["n_junctions"] + 1)
    f_scaling = [
        quarter_wave(
            ArraySpec(
                n_junctions=int(n),
                junction=junction,
                total_length=opts["array_length"],
                c_per_length=opts["c_per_length"],
                extra_inductance=extra,
            ),
            l_eq_override=None,
        ).f_bare
        for n in n_values
    ]
    plots = {
        "f_bare_vs_n": plot_group(
            "n_junctions", n_values, series("f_bare_hz", f_scaling)
        )
    }
    return results, plots


def _handle_predict_field(opts) -> tuple[dict, dict]:
    films = []
    for tag in ("1", "2"):
        films.append(
            FilmSpec(
                thickness=opts[f"d{tag}"],
                london_depth=opts["london_depth"],
                pippard_length=opts["pippard_length"],
                bulk_critical_field=opts["bulk_critical_field"],
            )
        )
    lam = [effective_penetration_depth(f) for f in films]
    b_crit = [parallel_critical_field(f) for f in films]
    b_phi0 = flux_quantum_field(opts["width"], opts["t_ox"], films[0], films[1])
    results = {
        "lambda_eff_1_m": lam[0],
        "lambda_eff_2_m": lam[1],
        "b_crit_1_t": b_crit[0],
        "b_crit_2_t": b_crit[1],
        "b_crit_t": min(b_crit),
        "b_phi0_t": b_phi0,
    }
    plots = {}
    if opts["f0"] is not None:
        params = FieldModelParams(f0=opts["f0"], b_crit=min(b_crit), b_phi0=b_phi0)
        b = np.linspace(0.0, 0.98 * params.b_max, 200)
        plots["predicted_tuning"] = plot_group(
            "field_t", b, series("fr_model_hz", np.atleast_1d(fr_vs_field(params, b)))
        )
        results["f0_hz"] = opts["f0"]
    return results, plots


def _synth_resonator(opts) -> tuple[LinearResonatorParams, EnvironmentParams]:
    f_r = opts["f_r"]
    res = LinearResonatorParams(
        f_r=f_r,
        kappa_c=TWO_PI * f_r / opts["q_c"],
        kappa_int=TWO_PI * f_r / opts["q_i"],
        phi0=opts["phi0"],
    )
    env = EnvironmentParams(
        amplitude=opts["amplitude"], alpha=opts["alpha"], tau=opts["tau"]
    )
    return res, env


def _synth_grid(opts, res: LinearResonatorParams) -> np.ndarray:
    kl_hz = res.kappa_l / TWO_PI
    center = opts["f_center"] if opts["f_center"] is not None else res.f_r
    span = opts["span_hz"] if opts["span_hz"] is not None else opts["span_linewidths"] * kl_hz
    return np.linspace(center - span / 2.0, center + span / 2.0, opts["points"])


def _handle_synth(opts) -> tuple[dict, dict]:
    kind = opts["kind"]
    noise = NoiseSpec(snr_db=opts["snr_db"], seed=opts["seed"])
    out_csv = opts["out_csv"]
    if kind == "linear":
        res, env = _synth_resonator(opts)
        grid = _synth_grid(opts, res)
        trace = generate_linear_trace(res, env, grid, opts["power_dbm"], noise)
        write_trace_csv(out_csv, trace)
        results = {"kind": kind, "csv": str(out_csv), "n_samples": len(trace)}
        plots = {
            "generated_magnitude": plot_group(
                "freq_hz", grid, series("mag", np.abs(trace.values))
            )
        }
    elif kind == "kerr":
        res, env = _synth_resonator(opts)
        grid = _synth_grid(opts, res)
        powers = np.arange(opts["power_min"], opts["power_max"] + 1e-9, opts["power_step"])
        params = KerrParams(
            linear=res,
            environment=env,
            kerr=opts["kerr_hz"],
            phi=opts["phi"] if opts["phi"] is not None else opts["phi0"],
        )
        sweep = generate_kerr_sweep(params, grid, powers, opts["branch"], noise)
        write_trace_csv(out_csv, sweep)
        dips = [t.frequencies[int(np.argmin(np.abs(t.values)))] for t in sweep.traces]
        results = {
            "kind": kind,
            "csv": str(out_csv),
            "n_powers": len(sweep),
            "n_samples": len(grid),
        }
        plots = {
            "dip_trajectory": plot_group(
                "power_dbm", powers, series("dip_freq_hz", dips)
            )
        }
    elif kind == "field":
        params = FieldModelParams(
            f0=opts["f0"], b_crit=opts["b_crit"], b_phi0=opts["b_phi0"]
        )
        fields = np.linspace(opts["b_min"], opts["b_max"], opts["b_points"])
        points = generate_field_sweep(params, fields, opts["sigma_f"], opts["seed"])
        write_field_csv(out_csv, points)
        results = {"kind": kind, "csv": str(out_csv), "n_points": len(points)}
        plots = {
            "generated_tuning": plot_group(
                "field_t", fields, series("fr_hz", [p.resonance for p in points])
            )
        }
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown synth kind {kind!r}")
    return results, plots


HANDLERS = {
    "fit-linear": _handle_fit_linear,
    "fit-power-sweep": _handle_fit_power_sweep,
    "fit-kerr": _handle_fit_kerr,
    "fit-field": _handle_fit_field,
    "design": _handle_design,
    "predict-field": _handle_predict_field,
    "synth": _handle_synth,
}

# Built-in defaults, also the whitelist of config-file keys per subcommand.
DEFAULTS: dict[str, dict] = {
    "fit-linear": {
        "csv": None,
        "power_dbm": None,
        "wing_fraction": 0.1,
        "max_iterations": 200,
        "segment": False,
        "prominence_db": 3.0,
        "window_linewidths": 20.0,
        "baseline_percentile": 50.0,
    },
    "fit-power-sweep": {
        "csv": None,
        "global_calibration": False,
        "wing_fraction": 0.1,
        "max_iterations": 200,
    },
    "fit-kerr": {
        "csv": None,
        "branch": "lowest",
        "k_init": None,
        "mask_bistable": False,
        "free_all": False,
        "stage1_max_photons": None,
        "wing_fraction": 0.1,
        "max_iterations": 200,
    },
    "fit-field": {
        "csv": None,
        "f0_init": None,
        "b_crit_init": None,
        "b_phi0_init": None,
    },
    "design": {
        "r_normal": 1250.0,
        "width": 520e-9,
        "length": 760e-9,
        "t_ox": 1e-9,
        "epsilon_r": 9.0,
        "delta0_ev": 180e-6,
        "n_junctions": 46,
        "array_length": 207e-6,
        "c_per_length": 0.057e-15 / 1e-6,
        "extra_inductance": None,
        "l_total": None,
        "l_eq_override": None,
        "f_loaded": None,
    },
    "predict-field": {
        "london_depth": 16e-9,
        "pippard_length": 1600e-9,
        "bulk_critical_field": 10e-3,
        "d1": 35e-9 / SQRT2,
        "d2": 130e-9 / SQRT2,
        "width": 520e-9,
        "t_ox": 1e-9,
        "f0": None,
    },
    "synth": {
        "kind": None,
        "out_csv": None,
        "f_r": 6.117e9,
        "q_c": 1500.0,
        "q_i": 15800.0,
        "phi0": 0.0,
        "amplitude": 1.0,
        "alpha": 0.0,
        "tau": 0.0,
        "f_center": None,
        "span_hz": None,
        "span_linewidths": 20.0,
        "points": 2001,
        "power_dbm": -140.0,
        "kerr_hz": 0.0,
        "phi": None,
        "branch": "lowest",
        "power_min": -150.0,
        "power_max": -115.0,
        "power_step": 2.5,
        "f0": 7.0e9,
        "b_crit": 66e-3,
        "b_phi0": 102e-3,
        "b_min": 0.0,
        "b_max": 60e-3,
        "b_points": 13,
        "sigma_f": 5e6,
        "snr_db": None,
        "seed": 0,
    },
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument("--config", help="JSON config file; explicit flags win")
    sub.add_argument(
        "--timestamp",
        action="store_true",
        help="include a generated_at field (breaks byte-level report reproducibility)",
    )
    sub.add_argument("-v", "--verbose", action="store_true", help="info-level logs on stderr")


def _float_opt(sub, name, help_text):
    sub.add_argument(name, type=float, default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resonatorlab",
        description="Notch-resonator spectroscopy fits and JJ-array design calculations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("fit-linear", help="fit one trace to the linear notch model")
    p.add_argument("csv", help="trace CSV (freq_hz + re/im or mag_db/phase_rad)")
    _float_opt(p, "--power-dbm", "feedline power; overrides any file value")
    _float_opt(p, "--wing-fraction", "fraction of samples per wing for the delay estimate")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument(
        "--segment",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="detect and fit every dip in a multi-resonator scan",
    )
    _float_opt(p, "--prominence-db", "dip detection threshold below the background")
    _float_opt(p, "--window-linewidths", "window width per dip, in estimated linewidths")
    _float_opt(p, "--baseline-percentile", "magnitude percentile used as the background")
    _add_common(p)

    p = subs.add_parser("fit-power-sweep", help="per-power linear fits and Q_i vs photon table")
    p.add_argument("csv", help="power-sweep CSV (power_dbm column required)")
    p.add_argument(
        "--global-calibration",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="photon numbers from the lowest-power fit instead of per-slice parameters",
    )
    _float_opt(p, "--wing-fraction", "fraction of samples per wing for the delay estimate")
    p.add_argument("--max-iterations", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("fit-kerr", help="two-stage self-Kerr fit of a 2-D power sweep")
    p.add_argument("csv", help="power-sweep CSV (power_dbm column required)")
    p.add_argument("--branch", choices=BRANCH_RULES, default=None)
    _float_opt(p, "--k-init", "initial Kerr coefficient [Hz]")
    p.add_argument("--mask-bistable", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--free-all", action=argparse.BooleanOptionalAction, default=None)
    _float_opt(
        p,
        "--stage1-max-photons",
        "pool all slices below this occupation for stage 1 (default: lowest slice only)",
    )
    _float_opt(p, "--wing-fraction", "fraction of samples per wing for the delay estimate")
    p.add_argument("--max-iterations", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("fit-field", help="fit f_r(B) tuning data to the thin-film model")
    p.add_argument("csv", help="field CSV (field_t, fr_hz, sigma_hz)")
    _float_opt(p, "--f0-init", "initial zero-field resonance [Hz]")
    _float_opt(p, "--b-crit-init", "initial in-plane critical field [T]")
    _float_opt(p, "--b-phi0-init", "initial flux-quantum field [T]")
    _add_common(p)

    p = subs.add_parser("design", help="JJ-array quarter-wave design report")
    _float_opt(p, "--r-normal", "normal-state resistance per junction [Ohm]")
    _float_opt(p, "--width", "junction width [m]")
    _float_opt(p, "--length", "junction length [m]")
    _float_opt(p, "--t-ox", "barrier thickness [m]")
    _float_opt(p, "--epsilon-r", "barrier relative permittivity")
    _float_opt(p, "--delta0-ev", "superconducting gap [eV]")
    p.add_argument("--n-junctions", type=int, default=None)
    _float_opt(p, "--array-length", "physical array length [m]")
    _float_opt(p, "--c-per-length", "capacitance to ground per unit length [F/m]")
    _float_opt(p, "--extra-inductance", "spurious series inductance [H]")
    _float_opt(p, "--l-total", "total array inductance [H]; sets extra-inductance")
    _float_opt(p, "--l-eq-override", "pin the lumped equivalent inductance [H]")
    _float_opt(p, "--f-loaded", "loaded resonance [Hz] for the loaded C_eq/Z_eq block")
    _add_common(p)

    p = subs.add_parser("predict-field", help="thin-film critical-field and B_phi0 predictions")
    _float_opt(p, "--london-depth", "London penetration depth [m]")
    _float_opt(p, "--pippard-length", "Pippard coherence length [m]")
    _float_opt(p, "--bulk-critical-field", "bulk critical field [T]")
    _float_opt(p, "--d1", "bottom lead thickness [m] (nominal/sqrt(2) for 45-degree evaporation)")
    _float_opt(p, "--d2", "top lead thickness [m] (nominal/sqrt(2) for 45-degree evaporation)")
    _float_opt(p, "--width", "junction width [m]")
    _float_opt(p, "--t-ox", "barrier thickness [m]")
    _float_opt(p, "--f0", "zero-field resonance [Hz]; adds a predicted tuning curve")
    _add_common(p)

    p = subs.add_parser("synth", help="generate synthetic data and write it as CSV")
    p.add_argument("kind", choices=("linear", "kerr", "field"))
    p.add_argument("--out-csv", required=True, help="where to write the generated CSV")
    _float_opt(p, "--f-r", "resonance frequency [Hz]")
    _float_opt(p, "--q-c", "external quality factor")
    _float_opt(p, "--q-i", "internal quality factor")
    _float_opt(p, "--phi0", "impedance-mismatch phase [rad]")
    _float_opt(p, "--amplitude", "background amplitude")
    _float_opt(p, "--alpha", "global phase [rad]")
    _float_opt(p, "--tau", "cable delay [s]")
    _float_opt(p, "--f-center", "grid center [Hz] (default: f_r)")
    _float_opt(p, "--span-hz", "grid span [Hz]")
    _float_opt(p, "--span-linewidths", "grid span in linewidths (if --span-hz unset)")
    p.add_argument("--points", type=int, default=None)
    _float_opt(p, "--power-dbm", "drive power for kind=linear")
    _float_opt(p, "--kerr-hz", "self-Kerr coefficient [Hz] for kind=kerr")
    _float_opt(p, "--phi", "nonlinear mismatch phase [rad] (default: phi0)")
    p.add_argument("--branch", choices=BRANCH_RULES, default=None)
    _float_opt(p, "--power-min", "sweep start power [dBm]")
    _float_opt(p, "--power-max", "sweep stop power [dBm]")
    _float_opt(p, "--power-step", "sweep power step [dB]")
    _float_opt(p, "--f0", "zero-field resonance [Hz] for kind=field")
    _float_opt(p, "--b-crit", "critical field [T]")
    _float_opt(p, "--b-phi0", "flux-quantum field [T]")
    _float_opt(p, "--b-min", "lowest field [T]")
    _float_opt(p, "--b-max", "highest field [T]")
    p.add_argument("--b-points", type=int, default=None)
    _float_opt(p, "--sigma-f", "resonance scatter [Hz]")
    _float_opt(p, "--snr-db", "background SNR [dB]; omit for noiseless")
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)

    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    defaults = DEFAULTS[args.command]
    config = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise DataError("config file must hold a JSON object")
        unknown = set(config) - set(defaults)
        if unknown:
            raise DataError(
                f"config keys not recognized for {args.command}: {sorted(unknown)}"
            )
    opts = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, default)
        opts[key] = value
    return opts


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        opts = _resolve_options(args)
        results, plots = HANDLERS[args.command](opts)
        timestamp = (
            datetime.now(timezone.utc).isoformat() if getattr(args, "timestamp", False) else None
        )
        doc = make_report(args.command, opts, results, plots, timestamp=timestamp)
        payload = dump_report(doc)
    except (ResonatorLabError, ValueError, OSError) as exc:
        code = exit_code_for(exc)
        logger.error("%s: %s", type(exc).__name__, exc)
        sys.stdout.write(dump_report(error_report(exc, args.command)))
        return code
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
