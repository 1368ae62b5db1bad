"""Junction-array resonator design from fabrication observables.

Maps room-temperature junction resistance and geometry to the circuit
parameters of a quarter-wave JJ-array resonator: critical current via the
Ambegaokar-Baratoff relation, Josephson inductance and energy, barrier
self-capacitance and charging energy, then the lumped quarter-wave
equivalents and the array's self-Kerr estimate ``E_C/N^2``
(:func:`kerr_from_array`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .constants import ELEMENTARY_CHARGE, FLUX_QUANTUM, PLANCK, VACUUM_PERMITTIVITY
from .errors import DomainError

__all__ = [
    "JunctionSpec",
    "ArraySpec",
    "ArrayDesignReport",
    "junction_electrical",
    "junction_capacitive",
    "quarter_wave",
    "quarter_wave_inductance",
    "extra_inductance_for_total",
    "f_bare_vs_n",
    "loaded_capacitance_from_frequency",
    "characteristic_impedance",
    "kerr_from_array",
]

#: Zero-temperature gap of thin-film Al; reproduces the measured I_c from R_N.
DEFAULT_GAP_EV = 180e-6
#: Relative permittivity of the AlOx tunnel barrier.
DEFAULT_BARRIER_EPSILON = 9.0


@dataclass(frozen=True)
class JunctionSpec:
    """Fabrication observables of a single junction."""

    r_normal: float  # Ohm, normal-state resistance per junction
    width: float  # m
    length: float  # m
    t_ox: float  # m, barrier thickness
    epsilon_r: float = DEFAULT_BARRIER_EPSILON
    delta0: float = DEFAULT_GAP_EV  # eV, superconducting gap

    def __post_init__(self):
        for name in ("r_normal", "width", "length", "t_ox", "epsilon_r", "delta0"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class ArraySpec:
    """A chain of identical junctions forming a quarter-wave resonator."""

    n_junctions: int
    junction: JunctionSpec
    total_length: float  # m, physical array length
    c_per_length: float  # F/m, capacitance to ground per unit length
    extra_inductance: float = 0.0  # H, spurious/wide-junction series contribution

    def __post_init__(self):
        if self.n_junctions < 1:
            raise ValueError(f"n_junctions must be at least 1, got {self.n_junctions}")
        if not (self.total_length > 0.0 and self.c_per_length > 0.0):
            raise ValueError("total_length and c_per_length must be positive")
        if self.extra_inductance < 0.0:
            raise ValueError(f"extra_inductance must be non-negative, got {self.extra_inductance}")


@dataclass(frozen=True)
class ArrayDesignReport:
    """All derived circuit parameters of one array design."""

    i_c: float  # A, junction critical current
    l_j: float  # H, Josephson inductance per junction
    e_j: float  # Hz, Josephson energy
    c_j: float  # F, junction self-capacitance
    e_c: float  # Hz, charging energy
    ej_over_ec: float
    plasma_frequency: float  # Hz
    l_total: float  # H, series inductance of the whole array
    l_eq: float  # H, lumped quarter-wave equivalent
    c_eq: float  # F, lumped quarter-wave equivalent
    f_bare: float  # Hz, bare fundamental-mode frequency
    z_eq: float  # Ohm, sqrt(l_eq / c_eq)
    kerr_estimate: float  # Hz, E_C / N^2


def _formed(name: str, inputs, formula) -> float:
    """``formula()``; a DomainError naming ``name`` and ``inputs`` unless positive and finite."""
    try:
        value = formula()
    except (ZeroDivisionError, OverflowError):  # a product underflowed to 0, a power overflowed
        value = math.nan
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} leaves the positive finite floats for {inputs}")
    return value


def junction_electrical(spec: JunctionSpec) -> tuple[float, float, float]:
    """Critical current, Josephson inductance and Josephson energy.

    Ambegaokar-Baratoff at zero temperature and zero field:
    ``I_c = pi Delta / (2 e R_N)``; then ``L_J = Phi0 / (2 pi I_c)`` and
    ``E_J = Phi0 I_c / (2 pi h)`` in Hz.
    """
    delta = spec.delta0 * ELEMENTARY_CHARGE  # J
    i_c = _formed("i_c", spec, lambda: math.pi * delta / (2.0 * ELEMENTARY_CHARGE * spec.r_normal))
    l_j = _formed("l_j", spec, lambda: FLUX_QUANTUM / (2.0 * math.pi * i_c))
    e_j = _formed("e_j", spec, lambda: FLUX_QUANTUM * i_c / (2.0 * math.pi * PLANCK))
    return i_c, l_j, e_j


def junction_capacitive(spec: JunctionSpec) -> tuple[float, float, float]:
    """Self-capacitance, charging energy [Hz] and plasma frequency [Hz]."""
    c_j = VACUUM_PERMITTIVITY * spec.epsilon_r * spec.width * spec.length / spec.t_ox
    e_c = _formed("e_c", spec, lambda: ELEMENTARY_CHARGE**2 / (2.0 * c_j * PLANCK))
    _, l_j, _ = junction_electrical(spec)
    plasma = _formed("plasma_frequency", spec, lambda: 1.0 / (2.0 * math.pi * math.sqrt(l_j * c_j)))
    return c_j, e_c, plasma


def quarter_wave_inductance(l_total: float) -> float:
    """Textbook lumped quarter-wave inductance, ``L_eq = (8/pi^2) L_total``."""
    return 8.0 / math.pi**2 * l_total


def extra_inductance_for_total(junction: JunctionSpec, n_junctions: int, l_total: float) -> float:
    """Series inductance beyond ``n_junctions`` junctions that makes the array total ``l_total``."""
    _, l_j, _ = junction_electrical(junction)
    extra = l_total - n_junctions * l_j
    if extra < 0.0:
        raise ValueError(
            f"--l-total {l_total} H is below the junction contribution {n_junctions * l_j} H"
        )
    return extra


def quarter_wave(array: ArraySpec, l_eq_override: float | None = None) -> ArrayDesignReport:
    """Full design report for a quarter-wave array resonator.

    The default lumped mapping is the textbook quarter-wave equivalent,
    ``L_eq = (8/pi^2) L_total`` and ``C_eq = C_total / 2``. ``l_eq_override``
    replaces the inductance mapping (the capacitance mapping is kept) for
    workflows that pin ``L_eq`` to an externally determined value.
    """
    if l_eq_override is not None and not (l_eq_override > 0.0 and math.isfinite(l_eq_override)):
        raise ValueError(f"l_eq_override must be positive and finite, got {l_eq_override}")
    spec = array.junction
    i_c, l_j, e_j = junction_electrical(spec)
    c_j, e_c, plasma = junction_capacitive(spec)
    l_total = array.n_junctions * l_j + array.extra_inductance
    c_total = array.c_per_length * array.total_length
    l_eq = l_eq_override if l_eq_override is not None else quarter_wave_inductance(l_total)
    c_eq = c_total / 2.0
    f_bare = _formed("f_bare", array, lambda: 1.0 / (2.0 * math.pi * math.sqrt(l_eq * c_eq)))
    z_eq = characteristic_impedance(l_eq, c_eq)
    return ArrayDesignReport(
        i_c=i_c,
        l_j=l_j,
        e_j=e_j,
        c_j=c_j,
        e_c=e_c,
        ej_over_ec=e_j / e_c,
        plasma_frequency=plasma,
        l_total=l_total,
        l_eq=l_eq,
        c_eq=c_eq,
        f_bare=f_bare,
        z_eq=z_eq,
        kerr_estimate=kerr_from_array(e_c, array.n_junctions),
    )


def f_bare_vs_n(array: ArraySpec, n_values) -> list[float]:
    """Bare fundamental frequency of ``array`` rebuilt with each junction count in ``n_values``."""
    return [quarter_wave(replace(array, n_junctions=int(n))).f_bare for n in n_values]


def loaded_capacitance_from_frequency(f_loaded: float, l_eq: float) -> float:
    """Equivalent capacitance implied by a loaded resonance at fixed ``l_eq``.

    ``C_eq = 1 / ((2 pi f)^2 L_eq)``; used to translate a simulated or
    measured loaded frequency into the resonator impedance.
    """
    if not (f_loaded > 0.0 and l_eq > 0.0):
        raise ValueError("f_loaded and l_eq must be positive")
    inputs = f"f_loaded={f_loaded}, l_eq={l_eq}"
    return _formed("c_eq_loaded", inputs, lambda: 1.0 / ((2.0 * math.pi * f_loaded) ** 2 * l_eq))


def characteristic_impedance(l_eq: float, c_eq: float) -> float:
    """Impedance ``Z = sqrt(L_eq / C_eq)`` [Ohm] of a lumped LC mode."""
    return _formed("z_eq", f"l_eq={l_eq}, c_eq={c_eq}", lambda: math.sqrt(l_eq / c_eq))


def kerr_from_array(e_c: float, n: int) -> float:
    """Self-Kerr estimate ``E_C / N^2`` [Hz] for an N-junction array."""
    if not e_c > 0.0:
        raise ValueError(f"charging energy must be positive, got {e_c}")
    if n < 1:
        raise ValueError(f"junction count must be at least 1, got {n}")
    return e_c / float(n) ** 2
