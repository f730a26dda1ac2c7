"""Property-based cross-validation of the analysis engines.

Random RC ladder networks are solved three independent ways — DC Newton,
MNA AC, and DPI/SFG + Mason — and must agree; KCL must hold at every node
of every DC solution.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ac_transfer, linearize, solve_dc
from repro.circuit.builder import CircuitBuilder
from tests.sfg import build_sfg, mason_gain, small_signal_bindings


@st.composite
def ladder_values(draw):
    """Random 2-4 section RC ladder component values."""
    n = draw(st.integers(min_value=2, max_value=4))
    rs = [draw(st.floats(min_value=100.0, max_value=1e5)) for _ in range(n)]
    cs = [draw(st.floats(min_value=1e-13, max_value=1e-9)) for _ in range(n)]
    shunt_r = [draw(st.one_of(st.none(), st.floats(min_value=1e3, max_value=1e6))) for _ in range(n)]
    return rs, cs, shunt_r


def build_ladder(rs, cs, shunt_r):
    b = CircuitBuilder("ladder")
    b.v("n0", "gnd", dc=1.0, ac=1.0)
    prev = "n0"
    for i, (r, c, rsh) in enumerate(zip(rs, cs, shunt_r), start=1):
        node = f"n{i}"
        b.r(prev, node, r)
        b.c(node, "gnd", c)
        if rsh is not None:
            b.r(node, "gnd", rsh)
        prev = node
    return b.build(), prev


@settings(max_examples=40, deadline=None)
@given(ladder_values())
def test_dc_kcl_holds_on_random_ladders(values):
    rs, cs, shunt_r = values
    circuit, _ = build_ladder(rs, cs, shunt_r)
    sol = solve_dc(circuit)
    assert sol.residual < 1e-9


@settings(max_examples=40, deadline=None)
@given(ladder_values())
def test_dc_voltages_monotone_down_resistive_ladder(values):
    rs, cs, shunt_r = values
    circuit, out = build_ladder(rs, cs, shunt_r)
    sol = solve_dc(circuit)
    voltages = [sol.voltages[f"n{i}"] for i in range(len(rs) + 1)]
    assert all(a >= b - 1e-12 for a, b in zip(voltages, voltages[1:]))
    assert 0.0 <= sol.voltages[out] <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(ladder_values(), st.floats(min_value=3.0, max_value=9.0))
def test_sfg_matches_mna_on_random_ladders(values, log_freq):
    rs, cs, shunt_r = values
    circuit, out = build_ladder(rs, cs, shunt_r)
    frequency = 10.0**log_freq

    op = solve_dc(circuit)
    lin = linearize(circuit, op)
    h_mna = ac_transfer(lin, out, np.array([frequency]))[0]

    graph, src = build_sfg(circuit)
    h_sym = mason_gain(graph, src, out)
    got = h_sym(2j * math.pi * frequency, small_signal_bindings(circuit, op))

    assert abs(got - h_mna) <= 1e-6 * max(abs(h_mna), 1e-12)


@settings(max_examples=25, deadline=None)
@given(ladder_values())
def test_passive_network_gain_bounded_by_one(values):
    rs, cs, shunt_r = values
    circuit, out = build_ladder(rs, cs, shunt_r)
    lin = linearize(circuit, solve_dc(circuit))
    freqs = np.logspace(2, 10, 17)
    mags = np.abs(ac_transfer(lin, out, freqs))
    assert np.all(mags <= 1.0 + 1e-9)


@settings(max_examples=20, deadline=None)
@given(ladder_values())
def test_integrated_noise_bounded_by_total_kt_over_c(values):
    # For any RC ladder the output noise cannot exceed kT over the smallest
    # capacitance in the path (the single-cap bound is the worst case).
    from repro.analysis import integrated_output_noise
    from repro.constants import KT_ROOM

    rs, cs, shunt_r = values
    circuit, out = build_ladder(rs, cs, shunt_r)
    lin = linearize(circuit, solve_dc(circuit))
    vn = integrated_output_noise(lin, out, f_min=1.0, f_max=1e13)
    bound = math.sqrt(KT_ROOM / min(cs))
    assert vn <= bound * 1.1
