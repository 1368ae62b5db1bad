"""Physical constants used throughout the package.

``PLANCK`` and ``ELEMENTARY_CHARGE`` are exact in the 2019 SI.
``HBAR = h/(2 pi)`` and ``FLUX_QUANTUM = h/(2e)`` are derived from them.
``VACUUM_PERMITTIVITY`` is the CODATA 2022 recommended value. All five equal
scipy's ``scipy.constants`` values; they are written out so that importing
the package does not parse scipy's CODATA table. No other module should
define its own copies; importing from here keeps the unit conventions in
one place.

It also holds ``BRANCH_RULES``, the Kerr model's branch-selection rules: the
CLI builds its option choices from them without importing numpy.
"""

import math

#: Planck constant [J s], exact.
PLANCK = 6.62607015e-34
#: Elementary charge [C], exact.
ELEMENTARY_CHARGE = 1.602176634e-19
#: Reduced Planck constant h/(2 pi) [J s].
HBAR = PLANCK / (2 * math.pi)
#: Superconducting magnetic flux quantum h/(2e) [Wb].
FLUX_QUANTUM = PLANCK / (2 * ELEMENTARY_CHARGE)
#: Vacuum electric permittivity [F/m], CODATA 2022.
VACUUM_PERMITTIVITY = 8.8541878188e-12

#: How the Kerr model picks a photon number where the cubic has three roots
#: (see :mod:`resonatorlab.kerrfit`).
BRANCH_RULES = ("lowest", "highest", "sweep-continuation")

__all__ = [
    "ELEMENTARY_CHARGE",
    "VACUUM_PERMITTIVITY",
    "PLANCK",
    "HBAR",
    "FLUX_QUANTUM",
    "BRANCH_RULES",
]
