"""Physical constants and unit helpers used throughout the library.

All internal quantities are SI (volts, amps, farads, seconds, hertz, watts)
unless a function name says otherwise.  The helpers here exist so that code
reads in the units designers use ("a 2 pF cap", "power in mW") without
scattering magic powers of ten through the codebase.
"""

from __future__ import annotations

import math

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380649e-23

#: Elementary charge [C].
ELEMENTARY_CHARGE = 1.602176634e-19

#: Default junction temperature for all analyses [K] (27 C, SPICE default).
ROOM_TEMPERATURE = 300.15

#: kT at the default temperature [J].
KT_ROOM = BOLTZMANN * ROOM_TEMPERATURE

#: Thermal voltage kT/q at the default temperature [V].
THERMAL_VOLTAGE = KT_ROOM / ELEMENTARY_CHARGE

#: Vacuum permittivity [F/m].
EPSILON_0 = 8.8541878128e-12

#: Relative permittivity of SiO2.
EPSILON_SIO2 = 3.9

# ---------------------------------------------------------------------------
# Unit multipliers (value * MILLI reads as "value milli-units").
# ---------------------------------------------------------------------------

TERA = 1e12
GIGA = 1e9
MEGA = 1e6
KILO = 1e3
MILLI = 1e-3
MICRO = 1e-6
NANO = 1e-9
PICO = 1e-12
FEMTO = 1e-15
ATTO = 1e-18


def db(value: float) -> float:
    """Convert a voltage/current ratio to decibels (20*log10)."""
    if value <= 0.0:
        raise ValueError(f"db() requires a positive ratio, got {value!r}")
    return 20.0 * math.log10(value)


def db_power(value: float) -> float:
    """Convert a power ratio to decibels (10*log10)."""
    if value <= 0.0:
        raise ValueError(f"db_power() requires a positive ratio, got {value!r}")
    return 10.0 * math.log10(value)


def parallel(*impedances: float) -> float:
    """Parallel combination of resistances (or of any impedance magnitudes).

    ``parallel(r1, r2, ...)`` returns ``1 / (1/r1 + 1/r2 + ...)``.  Zero is
    allowed (shorts win); an empty call is an error.
    """
    if not impedances:
        raise ValueError("parallel() needs at least one impedance")
    if any(z < 0 for z in impedances):
        raise ValueError("parallel() requires non-negative impedances")
    if any(z == 0.0 for z in impedances):
        return 0.0
    return 1.0 / sum(1.0 / z for z in impedances)


def lsb(full_scale: float, bits: int) -> float:
    """LSB size of a ``bits``-bit converter with the given full-scale range."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if full_scale <= 0:
        raise ValueError(f"full_scale must be positive, got {full_scale!r}")
    return full_scale / (2**bits)
