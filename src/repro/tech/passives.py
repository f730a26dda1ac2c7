"""Passive-component models: capacitor matching and switch on-resistance.

Capacitor matching drives the MDAC's DAC accuracy and therefore puts a
*floor* under unit-capacitor size at high resolution; the kT/C noise
requirement scales caps down by 4x per resolved front-end bit until that
floor (or the parasitic floor) is hit.  This interplay is what moves the
paper's optimum from 3-2... at 10 bits to 4-3-2... at 13 bits.
"""

from __future__ import annotations

import math

from repro.tech.process import Technology


def capacitor_mismatch_sigma(tech: Technology, capacitance: float) -> float:
    """Relative 1-sigma mismatch of a capacitor of the given value.

    Pelgrom-style scaling: sigma(dC/C) = A_C / sqrt(area), with area
    implied by the process capacitor density.
    """
    if capacitance <= 0:
        raise ValueError(f"capacitance must be positive, got {capacitance!r}")
    area_um2 = capacitance / tech.cap_density / 1e-12  # m^2 -> um^2
    return tech.cap_matching / math.sqrt(area_um2)


def min_capacitor(tech: Technology) -> float:
    """Smallest manufacturable capacitor in this technology."""
    return tech.cap_min


def switch_on_resistance(
    tech: Technology, width: float, vgs_drive: float | None = None
) -> float:
    """On-resistance of a minimum-length NMOS switch of the given width."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width!r}")
    nmos = tech.nmos
    vdrive = tech.vdd if vgs_drive is None else vgs_drive
    vov = vdrive - nmos.vth0
    if vov <= 0:
        raise ValueError("switch drive voltage below threshold")
    return 1.0 / (nmos.kp * (width / tech.lmin) * vov)
