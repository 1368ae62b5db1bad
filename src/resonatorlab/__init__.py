"""Analysis and design toolkit for notch-type Josephson junction array
microwave resonators: linear and Kerr-nonlinear transmission fits, photon
calibration, in-plane-field tuning fits and array design calculations.
"""

from .constants import ELEMENTARY_CHARGE, FLUX_QUANTUM, HBAR, PLANCK, VACUUM_PERMITTIVITY
from .core import (
    EnvironmentParams,
    FieldSweepPoint,
    FrequencyTrace,
    LinearResonatorParams,
    PowerSweep,
    dbm_to_watts,
    photon_flux,
    watts_to_dbm,
)
from .designer import (
    ArrayDesignReport,
    ArraySpec,
    JunctionSpec,
    junction_capacitive,
    junction_electrical,
    loaded_capacitance_from_frequency,
    quarter_wave,
)
from .errors import (
    ConvergenceError,
    DataError,
    DegenerateGeometryError,
    DomainError,
    InsufficientDataError,
    ReportSchemaError,
    ResonatorLabError,
    SchemaError,
)
from .fieldmodel import (
    FieldFitResult,
    FieldModelParams,
    FilmSpec,
    effective_penetration_depth,
    fit_field_sweep,
    flux_quantum_field,
    fr_vs_field,
    gap_suppression,
    parallel_critical_field,
)
from .kerrfit import (
    KerrFitOptions,
    KerrFitResult,
    KerrParams,
    fit_kerr,
    kerr_from_array,
    model_s21_kerr,
    photon_cubic_roots,
    single_photon_power,
)
from .linfit import (
    FitOptions,
    LinearFitResult,
    estimate_delay,
    fit_linear,
    model_s21_linear,
    photon_number,
)
from .synth import (
    NoiseSpec,
    derive_seed,
    generate_field_sweep,
    generate_kerr_sweep,
    generate_linear_trace,
)

__version__ = "0.1.0"
