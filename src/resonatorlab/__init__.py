"""Analysis and design toolkit for notch-type Josephson junction array
microwave resonators: linear and Kerr-nonlinear transmission fits, photon
calibration, in-plane-field tuning fits and array design calculations.

The namespace is lazy (PEP 562): ``import resonatorlab`` loads no submodule
and no numpy, and each public name imports its defining submodule on first
use, so a CLI run pays only for the modules its subcommand runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "constants": ("ELEMENTARY_CHARGE", "FLUX_QUANTUM", "HBAR", "PLANCK", "VACUUM_PERMITTIVITY"),
    "core": (
        "EnvironmentParams",
        "FieldSweepPoint",
        "FrequencyTrace",
        "LinearResonatorParams",
        "PowerSweep",
        "dbm_to_watts",
        "watts_to_dbm",
    ),
    "designer": (
        "ArrayDesignReport",
        "ArraySpec",
        "JunctionSpec",
        "junction_capacitive",
        "junction_electrical",
        "kerr_from_array",
        "loaded_capacitance_from_frequency",
        "quarter_wave",
    ),
    "errors": (
        "ConvergenceError",
        "DataError",
        "DegenerateGeometryError",
        "DomainError",
        "InsufficientDataError",
        "ReportSchemaError",
        "ResonatorLabError",
        "SchemaError",
    ),
    "fieldmodel": (
        "FieldFitResult",
        "FieldModelParams",
        "FilmSpec",
        "effective_penetration_depth",
        "fit_field_sweep",
        "flux_quantum_field",
        "fr_vs_field",
        "parallel_critical_field",
    ),
    "kerrfit": (
        "KerrFitOptions",
        "KerrFitResult",
        "KerrParams",
        "fit_kerr",
        "model_s21_kerr",
        "photon_cubic_roots",
    ),
    "linfit": (
        "FitOptions",
        "LinearFitResult",
        "estimate_delay",
        "fit_linear",
        "model_s21_linear",
        "photon_number",
        "single_photon_power",
    ),
    "synth": (
        "NoiseSpec",
        "derive_seed",
        "generate_field_sweep",
        "generate_kerr_sweep",
        "generate_linear_trace",
    ),
}

_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}

# The defining submodules are public names too, as they were when this
# module imported them all.
__all__ = [*_DEFINED_IN, *_EXPORTS]


def __getattr__(name):
    if name in _DEFINED_IN:
        value = getattr(_import_module(f".{_DEFINED_IN[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
