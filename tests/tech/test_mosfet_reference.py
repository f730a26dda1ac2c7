"""The compact model must equal its pre-hoisting copy bit for bit.

``mosfet_reference.py`` keeps the model as it was before its per-device
constants moved into :func:`repro.tech.mosfet.device_constants`.  Every
field each entry point returns is compared by its IEEE bits: the sign of
a zero counts, and a NaN must meet a NaN.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.enumeration.candidates import PipelineCandidate
from repro.specs import AdcSpec, plan_stages
from repro.synth import two_stage_space
from repro.tech import CORNERS
from repro.tech.mosfet import (
    dc_current,
    device_constants,
    device_current,
    operating_point,
)
from tests.tech import mosfet_reference as reference

#: Every device of every registered corner.
DEVICES = [
    (name, kind, getattr(tech, kind))
    for name, tech in sorted(CORNERS.items())
    for kind in ("nmos", "pmos")
]


def _size_bounds() -> tuple[float, float, float, float]:
    """The W and L ranges the synthesis spaces of the 13-bit 4-3-2 plan span."""
    plan = plan_stages(
        AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7)
    )
    w_lo, w_hi, l_lo, l_hi = math.inf, 0.0, math.inf, 0.0
    for tech in CORNERS.values():
        for mdac in plan.mdacs:
            for var in two_stage_space(mdac, tech).variables:
                if var.name.startswith("w_"):
                    w_lo, w_hi = min(w_lo, var.low), max(w_hi, var.high)
                elif var.name.startswith("l_"):
                    l_lo, l_hi = min(l_lo, var.low), max(l_hi, var.high)
    return w_lo, w_hi, l_lo, l_hi


W_LO, W_HI, L_LO, L_HI = _size_bounds()

#: Terminal voltages: mostly inside the rails, sometimes a special value.
voltages = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)


def _bits(value):
    """A value's identity for comparison: IEEE bits, any NaN alike."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return value


def _outcome(fn, *args):
    """Every returned field by its bits, or the exception raised."""
    try:
        result = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    return [_bits(v) for v in result]


@st.composite
def bias_points(draw):
    """A device, a size, and a bias on a chosen side of vds and the clamp."""
    corner, kind, params = draw(st.sampled_from(DEVICES))
    w = draw(st.floats(min_value=W_LO, max_value=W_HI))
    l = draw(st.floats(min_value=L_LO, max_value=L_HI))
    mult = draw(st.sampled_from([1, 2]))
    p = params.polarity
    vgs = draw(voltages)
    # Normalized vds >= 0 runs the forward model, < 0 the reverse one.
    nvds = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=4.0),
            st.floats(min_value=-4.0, max_value=-1e-9),
            voltages,
        )
    )
    # The body clamp: normalized vsb below or above -phi + 0.05.
    vsb_min = -params.phi + 0.05
    nvsb = draw(
        st.one_of(
            st.floats(min_value=vsb_min - 2.0, max_value=vsb_min),
            st.floats(min_value=vsb_min, max_value=vsb_min + 4.0),
            st.just(vsb_min),
            voltages,
        )
    )
    vds = p * nvds
    vbs = p * -nvsb
    return corner, kind, params, w, l, mult, vgs, vds, vbs


@settings(max_examples=400, deadline=None)
@given(bias_points())
@example(DEVICES[0] + (2e-6, 0.5e-6, 1, 1.0, 0.0, 0.0))
@example(DEVICES[1] + (2e-6, 0.5e-6, 2, -1.0, -0.0, -0.0))
def test_model_matches_reference_bit_for_bit(case):
    _, _, params, w, l, mult, vgs, vds, vbs = case
    for fn, ref in (
        (dc_current, reference.dc_current),
        (operating_point, reference.operating_point),
    ):
        # The DC walk calls the model at the device's width; the operating
        # point is taken at the multiplied width, as dc._package does.
        for width in (w, w * mult):
            assert _outcome(fn, params, width, l, vgs, vds, vbs) == _outcome(
                ref, params, width, l, vgs, vds, vbs
            )
    # The compiled loops' entry point, with constants bound once.
    assert _outcome(
        device_current, device_constants(params, w, l), vgs, vds, vbs
    ) == _outcome(reference.dc_current, params, w, l, vgs, vds, vbs)


@pytest.mark.parametrize("corner,kind,params", DEVICES)
def test_clamp_boundary_both_sides(corner, kind, params):
    # One ulp either side of the clamp, and on it.
    p = params.polarity
    vsb_min = -params.phi + 0.05
    for nvsb in (np.nextafter(vsb_min, -1.0), vsb_min, np.nextafter(vsb_min, 1.0)):
        for nvds in (0.7, -0.7):
            args = (params, 3e-6, 0.6e-6, p * 1.1, p * nvds, p * -float(nvsb))
            assert _outcome(dc_current, *args) == _outcome(reference.dc_current, *args)
            assert _outcome(operating_point, *args) == _outcome(
                reference.operating_point, *args
            )
