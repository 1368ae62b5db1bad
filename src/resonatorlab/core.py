"""Shared data containers and unit conversions.

Unit conventions used everywhere in the package:

* frequencies ``f`` in Hz,
* photon loss/coupling rates ``kappa`` in angular units (rad/s),
* powers at the feedline in dBm (converted to W internally),
* cable delay ``tau`` in seconds (sign free).

Quality factors are derived quantities, ``Q_x = 2 pi f_r / kappa_x``.
Keeping the rates angular internally avoids the factor-of-2pi confusion
that arises when mixing the two conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "FrequencyTrace",
    "PowerSweep",
    "FieldSweepPoint",
    "LinearResonatorParams",
    "EnvironmentParams",
    "dbm_to_watts",
    "watts_to_dbm",
    "dip_frequency",
]


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power from dBm to watts."""
    if not math.isfinite(p_dbm):
        raise ValueError(f"power must be finite, got {p_dbm}")
    try:
        return 10.0 ** ((p_dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"power {p_dbm} dBm overflows in watts") from None


def watts_to_dbm(p_watts: float) -> float:
    """Convert a power from watts to dBm."""
    if not (p_watts > 0.0 and math.isfinite(p_watts)):
        raise DomainError(f"power must be positive and finite, got {p_watts}")
    return 10.0 * math.log10(p_watts) + 30.0


def dip_frequency(frequencies: np.ndarray, values) -> np.ndarray:
    """Frequency of the deepest ``|S21|`` point: of each row, for a 2-D ``values``."""
    return frequencies[np.argmin(np.abs(values), axis=-1)]


def _freeze_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FrequencyTrace:
    """A complex S21 sweep versus frequency at fixed drive power.

    ``drive_power`` is the power at the sample feedline in dBm; ``None`` marks
    data whose feedline power is unknown (photon-number calibration is then
    unavailable). All arrays are immutable after construction.
    """

    frequencies: np.ndarray  # Hz, strictly increasing
    values: np.ndarray  # complex S21
    drive_power: float | None = None  # dBm at the feedline

    def __post_init__(self):
        freqs = _freeze_array(self.frequencies, float)
        vals = _freeze_array(self.values, complex)
        if freqs.ndim != 1 or vals.ndim != 1 or freqs.size != vals.size:
            raise ValueError("frequencies and values must be 1-d arrays of equal length")
        if freqs.size == 0:
            raise ValueError("trace must contain at least one sample")
        if not np.all(np.isfinite(freqs)) or np.any(freqs <= 0.0):
            raise ValueError("frequencies must be positive and finite")
        if np.any(np.diff(freqs) <= 0.0):
            raise ValueError("frequencies must be strictly increasing")
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise ValueError("transmission values must be finite")
        if self.drive_power is not None and not math.isfinite(self.drive_power):
            raise ValueError(f"drive_power must be finite or None, got {self.drive_power}")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.frequencies.size

    @property
    def span(self) -> float:
        """Total frequency span in Hz."""
        return float(self.frequencies[-1] - self.frequencies[0])


@dataclass(frozen=True)
class PowerSweep:
    """A stack of traces on one frequency grid, ordered by drive power."""

    traces: tuple[FrequencyTrace, ...]

    def __post_init__(self):
        traces = tuple(self.traces)
        if not traces:
            raise ValueError("power sweep must contain at least one trace")
        powers = [t.drive_power for t in traces]
        if any(p is None for p in powers):
            raise ValueError("every trace in a power sweep needs a drive_power")
        if any(b <= a for a, b in zip(powers, powers[1:])):
            raise ValueError("traces must be strictly increasing in drive_power")
        grid = traces[0].frequencies
        for t in traces[1:]:
            if not np.array_equal(t.frequencies, grid):
                raise ValueError("all traces in a power sweep must share one frequency grid")
        object.__setattr__(self, "traces", traces)

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def frequencies(self) -> np.ndarray:
        return self.traces[0].frequencies


@dataclass(frozen=True)
class FieldSweepPoint:
    """A fitted resonance frequency at one in-plane magnetic field value."""

    field: float  # T
    resonance: float  # Hz
    sigma: float  # Hz, 1-sigma uncertainty on the resonance

    def __post_init__(self):
        if self.field < 0.0 or not math.isfinite(self.field):
            raise ValueError(f"field must be non-negative and finite, got {self.field}")
        if not (self.resonance > 0.0 and math.isfinite(self.resonance)):
            raise ValueError(f"resonance must be positive and finite, got {self.resonance}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


@dataclass(frozen=True)
class LinearResonatorParams:
    """Resonator parameters of the linear notch model.

    ``kappa_c``/``kappa_int`` are angular rates [rad/s]; ``phi0`` is the
    impedance-mismatch rotation of the resonance circle.
    """

    f_r: float  # Hz
    kappa_c: float  # rad/s
    kappa_int: float  # rad/s
    phi0: float = 0.0  # rad

    def __post_init__(self):
        if not (self.f_r > 0.0 and math.isfinite(self.f_r)):
            raise ValueError(f"f_r must be positive and finite, got {self.f_r}")
        if not (self.kappa_c > 0.0 and math.isfinite(self.kappa_c)):
            raise ValueError(f"kappa_c must be positive and finite, got {self.kappa_c}")
        if self.kappa_int < 0.0 or not math.isfinite(self.kappa_int):
            raise ValueError(f"kappa_int must be non-negative and finite, got {self.kappa_int}")
        if not abs(self.phi0) < math.pi / 2:
            raise ValueError(f"|phi0| must be below pi/2, got {self.phi0}")

    @classmethod
    def from_q(cls, f_r: float, q_c: float, q_i: float, phi0: float = 0.0) -> LinearResonatorParams:
        """The resonator with ``kappa_x = 2 pi f_r / Q_x``; ``q_i = inf`` means no internal loss."""
        for name, q in (("q_c", q_c), ("q_i", q_i)):
            if not q > 0.0:
                raise ValueError(f"{name} must be positive, got {q}")
        return cls(f_r, 2.0 * math.pi * f_r / q_c, 2.0 * math.pi * f_r / q_i, phi0)

    @property
    def kappa_l(self) -> float:
        """Loaded (total) rate ``kappa_c + kappa_int`` [rad/s]."""
        return self.kappa_c + self.kappa_int

    @property
    def linewidth_hz(self) -> float:
        """Loaded linewidth ``kappa_L / 2 pi`` [Hz]."""
        return self.kappa_l / (2.0 * math.pi)

    @property
    def q_c(self) -> float:
        return 2.0 * math.pi * self.f_r / self.kappa_c

    @property
    def q_i(self) -> float:
        if self.kappa_int == 0.0:
            return math.inf
        return 2.0 * math.pi * self.f_r / self.kappa_int

    @property
    def q_l(self) -> float:
        return 2.0 * math.pi * self.f_r / self.kappa_l


@dataclass(frozen=True)
class EnvironmentParams:
    """Background scale, global phase and cable delay of the feedline."""

    amplitude: float = 1.0  # dimensionless
    alpha: float = 0.0  # rad
    tau: float = 0.0  # s, sign encodes the electrical-length convention

    def __post_init__(self):
        if not (self.amplitude > 0.0 and math.isfinite(self.amplitude)):
            raise ValueError(f"amplitude must be positive and finite, got {self.amplitude}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
