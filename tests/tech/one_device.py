"""The package's compact model, packaged for one lone device.

``operating_point`` runs :func:`repro.tech.mosfet.device_currents` and
:meth:`repro.tech.mosfet.DeviceArrays.points` on a single device, the path
a bound circuit's operating points take, so its fields can be held to the
reference model of ``mosfet_reference.py`` bit for bit.
"""

from __future__ import annotations

from repro.tech.mosfet import (
    _LONE,
    DeviceArrays,
    MosfetOperatingPoint,
    capacitance_constants,
    device_constants,
    device_currents,
)
from repro.tech.process import MosfetParams


def operating_point(
    params: MosfetParams,
    w: float,
    l: float,
    vgs: float,
    vds: float,
    vbs: float = 0.0,
) -> MosfetOperatingPoint:
    """Full small-signal operating point (currents, conductances, caps)."""
    xl = [vds, vgs, vbs, 0.0]
    detail = []
    ids, cond = device_currents(
        [device_constants(params, w, l) + _LONE], xl, detail, nan_forward=True
    )
    caps = [capacitance_constants(params, w, l)]
    (point,) = DeviceArrays([_LONE[1:]], ids, cond, detail, caps).points(xl)
    return point
