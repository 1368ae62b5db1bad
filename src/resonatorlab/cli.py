"""Command-line frontend.

Subcommands: ``fit-linear``, ``fit-power-sweep``, ``fit-kerr``,
``fit-field``, ``design``, ``predict-field`` and ``synth``. Every run
writes one JSON report (stdout or ``--out``); only a failed run writes to
stderr. Options resolve as flag > config file > built-in default. Exit
codes: 0 success, 2 schema/data error, 3 convergence error, 4 domain error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import TYPE_CHECKING

# Every run is its own process, so each handler imports the modules it runs:
# --version and design load no numpy, and no fit loads the others' modules.
from . import __version__
from .constants import BRANCH_RULES
from .errors import ConvergenceError, DataError, ResonatorLabError
from .reports import (
    EXIT_OK,
    dump_report,
    error_report,
    exit_code_for,
    make_report,
    plot_group,
    series,
)

if TYPE_CHECKING:
    import numpy as np

    from .core import FrequencyTrace, PowerSweep
    from .linfit import FitOptions


def _flag_warnings(results: dict) -> list[str]:
    """The ``flags`` of the linear payloads in a results block, each prefixed by
    where its payload sits (``slices[3]: ...``) unless it is the block itself."""
    payloads = [("", results), ("stage1", results.get("stage1", {}))]
    for key in ("dips", "slices"):
        payloads += [(f"{key}[{i}]", p) for i, p in enumerate(results.get(key, ()))]
    return [f"{at}: {flag}" if at else flag for at, p in payloads for flag in p.get("flags", ())]


def _require_single_trace(data, power_override) -> FrequencyTrace:
    from dataclasses import replace

    from .core import PowerSweep

    if isinstance(data, PowerSweep):
        raise DataError(
            "file contains a power sweep; use fit-power-sweep (or fit-kerr) instead"
        )
    if power_override is not None:
        return replace(data, drive_power=power_override)
    return data


def _require_sweep(data) -> PowerSweep:
    from .core import PowerSweep

    if not isinstance(data, PowerSweep):
        raise DataError(
            "file holds a single trace; a power sweep needs a power_dbm column "
            "with at least two distinct powers"
        )
    return data


def _magnitude_plot(freqs: np.ndarray, data: np.ndarray, model: np.ndarray) -> dict:
    import numpy as np

    return plot_group(
        "freq_hz", freqs, series("data_mag", np.abs(data)), series("model_mag", np.abs(model))
    )


def _trace_plots(trace: FrequencyTrace, model_values: np.ndarray) -> dict:
    import numpy as np

    f = trace.frequencies
    return {
        "magnitude": _magnitude_plot(f, trace.values, model_values),
        "phase": plot_group(
            "freq_hz",
            f,
            series("data_phase_rad", np.angle(trace.values)),
            series("model_phase_rad", np.angle(model_values)),
        ),
    }


def _fit_options(opts) -> FitOptions:
    from .linfit import FitOptions

    return FitOptions(
        wing_fraction=opts["wing_fraction"], max_iterations=opts["max_iterations"]
    )


def _handle_fit_linear(opts) -> tuple[dict, dict]:
    from .io import parse_trace_csv
    from .linfit import fit_linear, linear_payload, model_s21_linear, segment_trace

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
        fits = [_stage(f"dip {i}", fit_linear, w, fit_opts) for i, w in enumerate(windows)]
        plots = {
            f"dip_{i}_magnitude": _magnitude_plot(
                w.frequencies, w.values, model_s21_linear(f.resonator, f.environment, w.frequencies)
            )
            for i, (w, f) in enumerate(zip(windows, fits))
        }
        return {"dips": [linear_payload(f) for f in fits]}, plots
    fit = fit_linear(trace, fit_opts)
    model = model_s21_linear(fit.resonator, fit.environment, trace.frequencies)
    return linear_payload(fit), _trace_plots(trace, model)


def _handle_fit_power_sweep(opts) -> tuple[dict, dict]:
    from .io import parse_trace_csv
    from .linfit import fit_linear, linear_payload, photon_number

    sweep = _require_sweep(parse_trace_csv(opts["csv"]))
    fit_opts = _fit_options(opts)
    fits = [
        _stage(f"slice at {t.drive_power:.1f} dBm", fit_linear, t, fit_opts) for t in sweep.traces
    ]
    reference = fits[0].resonator
    slices = []
    for trace, fit in zip(sweep.traces, fits):
        payload = linear_payload(fit)
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


def _stage(name: str, fit, *args):
    """``fit(*args)``; a fit that runs out of its budget names ``name`` in its message."""
    try:
        return fit(*args)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{name}: {exc}", last_params=exc.last_params) from exc


def _handle_fit_kerr(opts) -> tuple[dict, dict]:
    from .core import dip_frequency
    from .io import parse_trace_csv
    from .kerrfit import KerrFitOptions, fit_kerr
    from .linfit import fit_linear, linear_payload

    sweep = _require_sweep(parse_trace_csv(opts["csv"]))
    # Stage 1, the lowest slice alone, seeds the joint fit of every slice and
    # fills the report's stage1 block.
    stage1 = _stage(
        "stage 1 (linear fit of the lowest slice)", fit_linear, sweep.traces[0], _fit_options(opts)
    )
    kerr_opts = KerrFitOptions(
        branch=opts["branch"],
        k_init=opts["k_init"],
        mask_bistable=opts["mask_bistable"],
        max_iterations=opts["max_iterations"],
    )
    fit = _stage("joint Kerr fit", fit_kerr, sweep, stage1, kerr_opts)
    params = fit.params
    results = {
        "kerr_hz": params.kerr,
        "kerr_sigma_hz": fit.k_uncertainty,
        "phi_rad": params.phi,
        "phi_sigma_rad": fit.phi_uncertainty,
        "branch": opts["branch"],
        "residual_rms": fit.residual_rms,
        "stage1": {**linear_payload(stage1), "stage1_slices": [sweep.traces[0].drive_power]},
    }
    if stage1.n_photons > 1.0:
        results["stage1"]["flags"].append(
            f"lowest sweep power already drives {stage1.n_photons:.2f} photons; the stage-1 "
            "linear fit may be biased by the nonlinearity"
        )
    powers = [t.drive_power for t in sweep.traces]
    freqs = sweep.frequencies
    data = [t.values for t in sweep.traces]
    plots = {
        "dip_trajectory": plot_group(
            "power_dbm",
            powers,
            series("dip_freq_data_hz", dip_frequency(freqs, data)),
            series("dip_freq_model_hz", dip_frequency(freqs, fit.model_s21)),
        ),
        "highest_power_slice": _magnitude_plot(freqs, data[-1], fit.model_s21[-1]),
    }
    return results, plots


def _handle_fit_field(opts) -> tuple[dict, dict]:
    import numpy as np

    from .fieldmodel import FieldModelParams, fit_field_sweep, fr_vs_field
    from .io import parse_field_csv

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
    from .designer import (
        ArraySpec,
        JunctionSpec,
        characteristic_impedance,
        extra_inductance_for_total,
        f_bare_vs_n,
        loaded_capacitance_from_frequency,
        quarter_wave,
        quarter_wave_inductance,
    )

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
        extra = extra_inductance_for_total(junction, opts["n_junctions"], opts["l_total"])
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
        "l_eq_default_mapping_h": quarter_wave_inductance(report.l_total),
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
            "z_eq_loaded_ohm": characteristic_impedance(report.l_eq, c_loaded),
        }
    n_values = range(1, 2 * opts["n_junctions"] + 1)
    plots = {
        "f_bare_vs_n": plot_group(
            "n_junctions", n_values, series("f_bare_hz", f_bare_vs_n(array, n_values))
        )
    }
    return results, plots


def _handle_predict_field(opts) -> tuple[dict, dict]:
    from .fieldmodel import (
        FieldModelParams,
        FilmSpec,
        effective_penetration_depth,
        flux_quantum_field,
        fr_vs_field,
        parallel_critical_field,
    )

    films = [
        FilmSpec(d, opts["london_depth"], opts["pippard_length"], opts["bulk_critical_field"])
        for d in (opts["d1"], opts["d2"])
    ]
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
        import numpy as np

        params = FieldModelParams(f0=opts["f0"], b_crit=min(b_crit), b_phi0=b_phi0)
        b = np.linspace(0.0, 0.98 * params.b_max, 200)
        plots["predicted_tuning"] = plot_group(
            "field_t", b, series("fr_model_hz", np.atleast_1d(fr_vs_field(params, b)))
        )
        results["f0_hz"] = opts["f0"]
    return results, plots


def _synth_inputs(opts):
    from .core import EnvironmentParams, LinearResonatorParams
    from .synth import frequency_grid

    res = LinearResonatorParams.from_q(opts["f_r"], opts["q_c"], opts["q_i"], opts["phi0"])
    env = EnvironmentParams(opts["amplitude"], opts["alpha"], opts["tau"])
    grid = frequency_grid(
        res, opts["points"], opts["span_linewidths"], opts["f_center"], opts["span_hz"]
    )
    return res, env, grid


def _handle_synth(opts) -> tuple[dict, dict]:
    import numpy as np

    from .core import dip_frequency
    from .fieldmodel import MIN_FIELD_POINTS, FieldModelParams
    from .io import write_field_csv, write_trace_csv
    from .kerrfit import KerrParams
    from .linfit import MIN_FIT_SAMPLES
    from .synth import NoiseSpec, generate_field_sweep, generate_kerr_sweep, generate_linear_trace

    kind = opts["kind"]
    # a grid too small for every fit would only be written to be refused
    size, least = ("points", MIN_FIT_SAMPLES)
    if kind == "field":
        size, least = ("b_points", MIN_FIELD_POINTS)
    if opts[size] < least:
        flag = "--" + size.replace("_", "-")
        raise ValueError(f"{flag} must be at least {least} for kind={kind}, got {opts[size]}")
    noise = NoiseSpec(snr_db=opts["snr_db"], seed=opts["seed"])
    out_csv = opts["out_csv"]
    if kind == "linear":
        res, env, grid = _synth_inputs(opts)
        trace = generate_linear_trace(res, env, grid, opts["power_dbm"], noise)
        write_trace_csv(out_csv, trace)
        results = {"n_samples": len(trace)}
        plots = {
            "generated_magnitude": plot_group(
                "freq_hz", grid, series("mag", np.abs(trace.values))
            )
        }
    elif kind == "kerr":
        if not opts["power_step"] > 0.0:
            raise ValueError(f"--power-step must be positive, got {opts['power_step']}")
        count = (opts["power_max"] - opts["power_min"]) / opts["power_step"] + 1
        if count > MAX_SYNTH_POWERS:
            raise ValueError(f"--power-step gives {count:.6g} powers, over {MAX_SYNTH_POWERS}")
        res, env, grid = _synth_inputs(opts)
        powers = np.arange(opts["power_min"], opts["power_max"] + 1e-9, opts["power_step"])
        params = KerrParams(
            linear=res,
            environment=env,
            kerr=opts["kerr_hz"],
            phi=opts["phi"] if opts["phi"] is not None else opts["phi0"],
        )
        sweep = generate_kerr_sweep(params, grid, powers, opts["branch"], noise)
        write_trace_csv(out_csv, sweep)
        results = {"n_powers": len(sweep), "n_samples": len(grid)}
        dips = dip_frequency(grid, [t.values for t in sweep.traces])
        plots = {"dip_trajectory": plot_group("power_dbm", powers, series("dip_freq_hz", dips))}
    else:  # field
        params = FieldModelParams(
            f0=opts["f0"], b_crit=opts["b_crit"], b_phi0=opts["b_phi0"]
        )
        fields = np.linspace(opts["b_min"], opts["b_max"], opts["b_points"])
        points = generate_field_sweep(params, fields, opts["sigma_f"], opts["seed"])
        write_field_csv(out_csv, points)
        results = {"n_points": len(points)}
        plots = {
            "generated_tuning": plot_group(
                "field_t", fields, series("fr_hz", [p.resonance for p in points])
            )
        }
    return {"kind": kind, "csv": str(out_csv), **results}, plots


# Each subcommand's handler, help line and options, every option declared
# once: the parser's flags, the built-in defaults and the config-file whitelist
# and type check all come from here. Each option is ``key: (kind, default,
# help)``; ``kind`` is float, int, bool (a --x/--no-x flag), a tuple of
# choices, or str (a required flag). ``csv`` and ``kind`` are positional.
POSITIONAL = ("csv", "kind")

MAX_SYNTH_POWERS = 1000  # most powers synth kerr writes; checked before they are allocated

# the options that several subcommands share
_FIT_OPTIONS = {
    "wing_fraction": (float, 0.1, "fraction of samples per wing for the delay estimate"),
    "max_iterations": (int, 200, None),
}
_BRANCH = (BRANCH_RULES, "lowest", None)
_WIDTH = (float, 520e-9, "junction width [m]")
_T_OX = (float, 1e-9, "barrier thickness [m]")

COMMANDS: dict[str, tuple] = {
    "fit-linear": (_handle_fit_linear, "fit one trace to the linear notch model", {
        "csv": (str, None, "trace CSV (freq_hz + re/im or mag_db/phase_rad)"),
        "power_dbm": (float, None, "feedline power; overrides any file value"),
        **_FIT_OPTIONS,
        "segment": (bool, False, "detect and fit every dip in a multi-resonator scan"),
        "prominence_db": (float, 3.0, "dip detection threshold below the background"),
        "window_linewidths": (float, 20.0, "window width per dip, in estimated linewidths"),
        "baseline_percentile": (float, 50.0, "magnitude percentile used as the background"),
    }),
    "fit-power-sweep": (_handle_fit_power_sweep, "per-power linear fits and Q_i vs photon table", {
        "csv": (str, None, "power-sweep CSV (power_dbm column required)"),
        "global_calibration": (
            bool, False, "photon numbers from the lowest-power fit instead of per-slice parameters"
        ),
        **_FIT_OPTIONS,
    }),
    "fit-kerr": (_handle_fit_kerr, "joint self-Kerr fit of a 2-D power sweep", {
        "csv": (str, None, "power-sweep CSV (power_dbm column required)"),
        "branch": _BRANCH,
        "k_init": (float, None, "initial Kerr coefficient [Hz]"),
        "mask_bistable": (bool, False, "drop the points with three roots at the starting K"),
        **_FIT_OPTIONS,
    }),
    "fit-field": (_handle_fit_field, "fit f_r(B) tuning data to the thin-film model", {
        "csv": (str, None, "field CSV (field_t, fr_hz, sigma_hz)"),
        "f0_init": (float, None, "initial zero-field resonance [Hz]"),
        "b_crit_init": (float, None, "initial in-plane critical field [T]"),
        "b_phi0_init": (float, None, "initial flux-quantum field [T]"),
    }),
    "design": (_handle_design, "JJ-array quarter-wave design report", {
        "r_normal": (float, 1250.0, "normal-state resistance per junction [Ohm]"),
        "width": _WIDTH,
        "length": (float, 760e-9, "junction length [m]"),
        "t_ox": _T_OX,
        "epsilon_r": (float, 9.0, "barrier relative permittivity"),
        "delta0_ev": (float, 180e-6, "superconducting gap [eV]"),
        "n_junctions": (int, 46, None),
        "array_length": (float, 207e-6, "physical array length [m]"),
        "c_per_length": (float, 0.057e-15 / 1e-6, "capacitance to ground per unit length [F/m]"),
        "extra_inductance": (float, None, "spurious series inductance [H]"),
        "l_total": (float, None, "total array inductance [H]; sets extra-inductance"),
        "l_eq_override": (float, None, "pin the lumped equivalent inductance [H]"),
        "f_loaded": (float, None, "loaded resonance [Hz] for the loaded C_eq/Z_eq block"),
    }),
    "predict-field": (_handle_predict_field, "thin-film critical-field and B_phi0 predictions", {
        "london_depth": (float, 16e-9, "London penetration depth [m]"),
        "pippard_length": (float, 1600e-9, "Pippard coherence length [m]"),
        "bulk_critical_field": (float, 10e-3, "bulk critical field [T]"),
        # 35 nm and 130 nm nominal over sqrt(2), written out to the last bit
        "d1": (
            float,
            2.4748737341529165e-08,
            "bottom lead thickness [m] (nominal/sqrt(2) for 45-degree evaporation)",
        ),
        "d2": (
            float,
            9.192388155425117e-08,
            "top lead thickness [m] (nominal/sqrt(2) for 45-degree evaporation)",
        ),
        "width": _WIDTH,
        "t_ox": _T_OX,
        "f0": (float, None, "zero-field resonance [Hz]; adds a predicted tuning curve"),
    }),
    "synth": (_handle_synth, "generate synthetic data and write it as CSV", {
        "kind": (("linear", "kerr", "field"), None, None),
        "out_csv": (str, None, "where to write the generated CSV"),
        "f_r": (float, 6.117e9, "resonance frequency [Hz]"),
        "q_c": (float, 1500.0, "external quality factor"),
        "q_i": (float, 15800.0, "internal quality factor"),
        "phi0": (float, 0.0, "impedance-mismatch phase [rad]"),
        "amplitude": (float, 1.0, "background amplitude"),
        "alpha": (float, 0.0, "global phase [rad]"),
        "tau": (float, 0.0, "cable delay [s]"),
        "f_center": (float, None, "grid center [Hz] (default: f_r)"),
        "span_hz": (float, None, "grid span [Hz]"),
        "span_linewidths": (float, 20.0, "grid span in linewidths (if --span-hz unset)"),
        "points": (int, 2001, None),
        "power_dbm": (float, -140.0, "drive power for kind=linear"),
        "kerr_hz": (float, 0.0, "self-Kerr coefficient [Hz] for kind=kerr"),
        "phi": (float, None, "nonlinear mismatch phase [rad] (default: phi0)"),
        "branch": _BRANCH,
        "power_min": (float, -150.0, "sweep start power [dBm]"),
        "power_max": (float, -115.0, "sweep stop power [dBm]"),
        "power_step": (float, 2.5, f"sweep power step [dB]; at most {MAX_SYNTH_POWERS} powers"),
        "f0": (float, 7.0e9, "zero-field resonance [Hz] for kind=field"),
        "b_crit": (float, 66e-3, "critical field [T]"),
        "b_phi0": (float, 102e-3, "flux-quantum field [T]"),
        "b_min": (float, 0.0, "lowest field [T]"),
        "b_max": (float, 60e-3, "highest field [T]"),
        "b_points": (int, 13, None),
        "sigma_f": (float, 5e6, "resonance scatter [Hz]"),
        "snr_db": (float, None, "background SNR [dB]; omit for noiseless"),
        "seed": (int, 0, None),
    }),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors (unknown flags, bad values) raise :class:`DataError`, so
    they exit 2 with a JSON error report like every other input error."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-4e-8" as a flag: take scientific notation as a number too
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DataError(message)


class _Subcommands(argparse._SubParsersAction):
    """Adds a subcommand's options to its parser when argparse selects it, so
    a run builds one subcommand's options, not all seven's: argparse makes a
    help formatter for every option it adds."""

    def __call__(self, parser, namespace, values, option_string=None):
        sub = self._name_parser_map[values[0]]
        if "--out" not in sub._option_string_actions:  # not yet filled
            _add_options(sub, COMMANDS[values[0]][2])
        super().__call__(parser, namespace, values, option_string)


def _add_options(p: argparse.ArgumentParser, options: dict) -> None:
    for key, (kind, _, help_text) in options.items():
        kw = {"help": help_text}
        if isinstance(kind, tuple):
            kw["choices"] = kind
        elif kind is bool:
            kw["action"] = argparse.BooleanOptionalAction
        elif kind is not str:
            kw["type"] = kind
        if key in POSITIONAL:
            p.add_argument(key, **kw)
        else:
            p.add_argument("--" + key.replace("_", "-"), required=kind is str, **kw)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--config", help="JSON config file; explicit flags win")
    p.add_argument(
        "--timestamp",
        action="store_true",
        help="include a generated_at field (breaks byte-level report reproducibility)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="resonatorlab",
        description="Notch-resonator spectroscopy fits and JJ-array design calculations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", action=_Subcommands, required=True)
    for command, (_, help_line, _) in COMMANDS.items():
        subs.add_parser(command, help=help_line)
    return parser


def _config_value_ok(kind, default, value) -> bool:
    """Whether a config-file value has the JSON type of its option.

    ``null`` only where the default is ``null``; an int passes for a float
    option (and is kept as an int); a bool is never a number.
    """
    if value is None:
        return default is None
    if isinstance(kind, tuple):
        return value in kind
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _resolve_options(args: argparse.Namespace) -> dict:
    _, _, options = COMMANDS[args.command]
    config = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise DataError("config file must hold a JSON object")
        unknown = set(config) - set(options)
        if unknown:
            raise DataError(
                f"config keys not recognized for {args.command}: {sorted(unknown)}"
            )
        for key, value in config.items():
            kind, default, _ = options[key]
            if not _config_value_ok(kind, default, value):
                expected = f"one of {list(kind)}" if isinstance(kind, tuple) else kind.__name__
                raise DataError(
                    f"config key {key!r} for {args.command} must be {expected}, got {value!r}"
                )
    opts = {}
    for key, (_, default, _) in options.items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, default)
        opts[key] = value
    return opts


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = argparse.Namespace(command=None)
    try:
        args = parser.parse_args(argv)
        opts = _resolve_options(args)
        results, plots = COMMANDS[args.command][0](opts)
        timestamp = None
        if getattr(args, "timestamp", False):
            from datetime import datetime, timezone

            timestamp = datetime.now(timezone.utc).isoformat()
        doc = make_report(args.command, opts, results, plots, _flag_warnings(results), timestamp)
        payload = dump_report(doc)
    except (ResonatorLabError, ValueError, OSError) as exc:
        code = exit_code_for(exc)
        # a usage error leaves args.command unset, and its line bare
        prefix = "" if args.command is None else "ERROR resonatorlab: "
        sys.stderr.write(f"{prefix}{type(exc).__name__}: {exc}\n")
        sys.stdout.write(dump_report(error_report(exc, args.command)))
        return code
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
