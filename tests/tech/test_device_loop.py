"""The bound device loop must equal the pre-hoisting model bit for bit.

:func:`repro.tech.mosfet.device_currents` runs every device of a bound
circuit in one loop, with each device's constants, multiplier and terminal
slots in one flat tuple.  This property draws several devices at once over
one voltage vector and holds every current and conductance to
``mosfet_reference.dc_current`` scaled as the element walk scales it, by
IEEE bits (a NaN meets any NaN), and a raising device to the same
exception.
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tech.mosfet import device_constants, device_currents
from tests.tech import mosfet_reference as reference
from tests.tech.test_mosfet_reference import DEVICES, L_HI, L_LO, W_HI, W_LO

#: Node voltages: mostly inside the rails, sometimes a special value.
voltages = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)


def _bits(value: float):
    return "nan" if math.isnan(value) else struct.pack("<d", value)


@st.composite
def bound_devices(draw):
    """Up to six devices over up to five nets plus the ground slot.

    One net's voltage is chosen per device so that its normalized vds or
    vsb lands on a chosen side of zero or of the body clamp.
    """
    n_nets = draw(st.integers(min_value=1, max_value=5))
    xl = draw(st.lists(voltages, min_size=n_nets, max_size=n_nets)) + [0.0]
    slots = st.integers(min_value=0, max_value=n_nets)
    devices = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        _, _, params = draw(st.sampled_from(DEVICES))
        w = draw(st.floats(min_value=W_LO, max_value=W_HI))
        l = draw(st.floats(min_value=L_LO, max_value=L_HI))
        mult = draw(st.sampled_from([1, 1, 2, 3]))
        d, g, s, b = (draw(slots) for _ in range(4))
        p = params.polarity
        side = draw(st.sampled_from(["free", "forward", "reverse", "clamped", "body"]))
        if side in ("forward", "reverse") and d < n_nets and d != s:
            nvds = draw(st.floats(min_value=1e-9, max_value=4.0))
            xl[d] = xl[s] + p * (nvds if side == "forward" else -nvds)
        elif side in ("clamped", "body") and b < n_nets and b != s:
            vsb_min = -params.phi + 0.05
            nvsb = draw(
                st.floats(min_value=vsb_min - 2.0, max_value=vsb_min)
                if side == "clamped"
                else st.floats(min_value=vsb_min, max_value=vsb_min + 4.0)
            )
            xl[b] = xl[s] - p * nvsb
        devices.append((params, w, l, mult, d, g, s, b))
    return devices, xl


def _walk(devices, xl):
    """Each device as the element walk evaluates it, or the first raise."""
    ids, cond = [], []
    for params, w, l, mult, d, g, s, b in devices:
        try:
            i_d, gm, gds, gmb = reference.dc_current(
                params, w, l, xl[g] - xl[s], xl[d] - xl[s], xl[b] - xl[s]
            )
        except (ArithmeticError, ValueError) as exc:
            return type(exc), str(exc)
        i_d *= mult
        gm *= mult
        gds *= mult
        gmb *= mult
        ids.append(i_d)
        cond += (gm, gds, gmb, gm + gds + gmb)
    return [_bits(v) for v in ids], [_bits(v) for v in cond]


def _loop(devices, xl):
    bound = [
        device_constants(params, w, l) + (mult, d, g, s, b)
        for params, w, l, mult, d, g, s, b in devices
    ]
    try:
        ids, cond = device_currents(bound, xl)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return [_bits(v) for v in ids], [_bits(v) for v in cond]


@settings(max_examples=400, deadline=None)
@given(bound_devices())
def test_device_loop_matches_the_reference_walk(case):
    devices, xl = case
    assert _loop(devices, xl) == _walk(devices, xl)


def _exact(values):
    """IEEE bits of each value, the sign and payload of a NaN included."""
    return [struct.pack("<d", v) for v in values]


@settings(max_examples=200, deadline=None)
@given(bound_devices())
def test_keeping_the_detail_keeps_the_residuals_reverse_rule(case):
    # The Newton residual keeps each device's forward-frame detail and
    # still runs a NaN vds reversed, bit for bit; an operating point's
    # ``nan_forward`` pass changes only devices whose vds is NaN.
    devices, xl = case
    bound = [
        device_constants(params, w, l) + (mult, d, g, s, b)
        for params, w, l, mult, d, g, s, b in devices
    ]
    try:
        plain = device_currents(bound, xl)
    except (ArithmeticError, ValueError) as exc:
        plain = type(exc)
    detail = []
    try:
        kept = device_currents(bound, xl, detail)
    except (ArithmeticError, ValueError) as exc:
        kept = type(exc)
    if isinstance(plain, type):
        assert kept is plain
        return
    assert [_exact(v) for v in kept] == [_exact(v) for v in plain]
    assert len(detail) == len(bound)
    forward = device_currents(bound, xl, [], nan_forward=True)
    nan_vds = [vds != vds for _, vds, _, _, _ in detail]
    for k, nan in enumerate(nan_vds):
        if not nan:
            assert _exact([forward[0][k]]) == _exact([plain[0][k]])
            assert _exact(forward[1][4 * k : 4 * k + 4]) == _exact(
                plain[1][4 * k : 4 * k + 4]
            )


def test_every_region_and_special_voltage_appears():
    # One device per polarity and side, each terminal in turn NaN or +-inf.
    for _, _, params in DEVICES[:2]:
        p = params.polarity
        base = [p * 1.2, p * 1.1, p * 0.3, 0.0]  # d, g, b, ground (source)
        for nvds in (0.7, -0.7):
            for special in (None, math.nan, math.inf, -math.inf):
                for slot in range(3):
                    xl = list(base)
                    xl[0] = p * nvds
                    if special is not None:
                        xl[slot] = special
                    devices = [(params, 3e-6, 0.6e-6, 2, 0, 1, 3, 2)]
                    assert _loop(devices, xl) == _walk(devices, xl)
