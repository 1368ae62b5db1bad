"""Forward-model synthetic data: linear traces, Kerr power sweeps and field
sweeps with reproducible additive noise.

Noise model: independent complex Gaussian per point with per-quadrature
standard deviation ``a 10^(-snr/20) / sqrt(2)``, i.e. ``snr_db`` is the
power signal-to-noise of the off-resonant background. Identical seeds give
bit-identical output. Multi-trace generators derive one child seed per
trace from ``(seed, trace index)`` only, so per-trace generation is
order-independent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    EnvironmentParams,
    FieldSweepPoint,
    FrequencyTrace,
    LinearResonatorParams,
    PowerSweep,
)
from .fieldmodel import FieldModelParams, fr_vs_field
from .kerrfit import KerrParams, model_s21_kerr
from .linfit import model_s21_linear

__all__ = [
    "NoiseSpec",
    "derive_seed",
    "generate_linear_trace",
    "generate_kerr_sweep",
    "generate_field_sweep",
    "frequency_grid",
]

#: Sigma recorded for noiseless field sweeps so 1/sigma^2 weighting stays defined.
NOISELESS_FIELD_SIGMA = 1.0  # Hz

#: Highest frequency of a :func:`frequency_grid`: below it ``2 pi f``, and
#: ``2 pi (f_r - f)`` for an ``f_r`` as high, stay finite in every model.
F_MAX = sys.float_info.max / 8.0  # Hz


@dataclass(frozen=True)
class NoiseSpec:
    """Additive-noise configuration; ``snr_db=None`` means noiseless."""

    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.snr_db is not None and not self.snr_db > 0.0:
            raise ValueError(f"snr_db must be positive or None, got {self.snr_db}")

    @property
    def noiseless(self) -> bool:
        return self.snr_db is None


def derive_seed(seed: int, index: int) -> int:
    """Deterministic, order-independent child seed for trace ``index``."""
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _add_noise(values: np.ndarray, amplitude: float, noise: NoiseSpec) -> np.ndarray:
    if noise.noiseless:
        return values
    sigma = amplitude * 10.0 ** (-noise.snr_db / 20.0) / math.sqrt(2.0)
    rng = np.random.default_rng(noise.seed)
    re = rng.standard_normal(values.size)
    im = rng.standard_normal(values.size)
    return values + sigma * (re + 1j * im)


def frequency_grid(
    res: LinearResonatorParams,
    points: int,
    span_linewidths: float,
    f_center: float | None = None,
    span_hz: float | None = None,
) -> np.ndarray:
    """``points`` evenly spaced frequencies around ``f_center`` (default ``f_r``)
    over ``span_hz``, or else over ``span_linewidths`` loaded linewidths
    ``kappa_L / 2 pi``.

    The centre and the span given must be positive and finite, the grid must
    lie in (0, :data:`F_MAX`] Hz, and its step must exceed 4 eps of its top
    frequency, so that rounding keeps the points strictly increasing. Each
    refusal names the centre and the span given, before any array is made.
    """
    center = f_center if f_center is not None else res.f_r
    span = ("span_linewidths", span_linewidths) if span_hz is None else ("span_hz", span_hz)
    for name, value in (("f_center", center), span):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if span_hz is None:
        span_hz = span_linewidths * res.linewidth_hz
    low, high = center - span_hz / 2.0, center + span_hz / 2.0
    given = f"f_center {center} Hz and {span[0]} {span[1]}"
    if not (low > 0.0 and high <= F_MAX):
        raise ValueError(f"{given} put the grid at [{low}, {high}] Hz, outside (0, {F_MAX:.6g}] Hz")
    if points > 1 and not span_hz / (points - 1) > 4.0 * sys.float_info.epsilon * high:
        raise ValueError(
            f"{given} give {points} points a step of {span_hz / (points - 1)} Hz, "
            f"not above 4 eps of the top frequency {high} Hz"
        )
    return np.linspace(low, high, points)


def _check_delay(tau: float, freqs: np.ndarray) -> None:
    """Refuse a delay whose phase ``2 pi f tau`` may leave the float range on
    the increasing grid ``freqs``, before the model evaluates it: the
    phase is finite wherever its bound ``8 |f tau|`` is."""
    top = max(abs(float(freqs[0])), abs(float(freqs[-1]))) if freqs.size else 0.0
    if not math.isfinite(8.0 * top * tau):
        raise ValueError(f"tau {tau} s makes the delay phase 2 pi f tau overflow at {top} Hz")


def generate_linear_trace(
    res: LinearResonatorParams,
    env: EnvironmentParams,
    grid: Sequence[float] | np.ndarray,
    power_dbm: float,
    noise: NoiseSpec = NoiseSpec(),
) -> FrequencyTrace:
    """Evaluate the linear notch model on ``grid`` and add noise."""
    freqs = np.asarray(grid, dtype=float)
    _check_delay(env.tau, freqs)
    values = _add_noise(model_s21_linear(res, env, freqs), env.amplitude, noise)
    return FrequencyTrace(
        frequencies=freqs,
        values=values,
        drive_power=power_dbm,
    )


def generate_kerr_sweep(
    params: KerrParams,
    grid: Sequence[float] | np.ndarray,
    powers_dbm: Sequence[float],
    branch: str = "lowest",
    noise: NoiseSpec = NoiseSpec(),
) -> PowerSweep:
    """Kerr-model power sweep; one derived noise seed per power slice.

    At ``kerr == 0`` the Kerr model is the linear model bit for bit, so a
    zero-Kerr sweep equals stacked :func:`generate_linear_trace` outputs (with
    ``phi`` as ``phi0``) under the matching :func:`derive_seed` child seeds.
    """
    freqs = np.asarray(grid, dtype=float)
    _check_delay(params.environment.tau, freqs)
    traces = []
    for i, power in enumerate(powers_dbm):
        child = NoiseSpec(snr_db=noise.snr_db, seed=derive_seed(noise.seed, i))
        values = _add_noise(
            model_s21_kerr(params, freqs, power, branch),
            params.environment.amplitude,
            child,
        )
        traces.append(FrequencyTrace(frequencies=freqs, values=values, drive_power=power))
    return PowerSweep(traces=tuple(traces))


def generate_field_sweep(
    params: FieldModelParams,
    fields: Sequence[float] | np.ndarray,
    sigma_f: float,
    seed: int = 0,
) -> list[FieldSweepPoint]:
    """Tuning-curve samples with Gaussian scatter of std ``sigma_f`` [Hz]."""
    if sigma_f < 0.0:
        raise ValueError(f"sigma_f must be non-negative, got {sigma_f}")
    b = np.asarray(fields, dtype=float)
    clean = np.atleast_1d(fr_vs_field(params, b))
    if sigma_f > 0.0:
        rng = np.random.default_rng(seed)
        observed = clean + sigma_f * rng.standard_normal(clean.size)
        recorded_sigma = sigma_f
    else:
        observed = clean
        recorded_sigma = NOISELESS_FIELD_SIGMA
    return [
        FieldSweepPoint(field=float(bi), resonance=float(fi), sigma=recorded_sigma)
        for bi, fi in zip(b, observed)
    ]
