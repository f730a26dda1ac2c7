"""DPI signal-flow graphs cross-validated against direct MNA AC analysis.

The decisive test: for real transistor circuits, the symbolic transfer
function from DPI + Mason, bound with small-signal values from the DC
solution, must match the numeric MNA frequency response to high precision —
they are two routes to the same linearized circuit.
"""

import math

import numpy as np
import pytest

from repro.analysis import ac_transfer, linearize, solve_dc
from repro.circuit.builder import CircuitBuilder
from repro.tech import CMOS025
from tests.sfg import SfgError, build_sfg, mason_gain, small_signal_bindings


def cross_validate(ckt, output_net, frequencies, rel=1e-6):
    """Assert DPI+Mason == MNA AC for the circuit's configured input."""
    op = solve_dc(ckt)
    graph, src = build_sfg(ckt)
    h_sym = mason_gain(graph, src, output_net)
    bindings = small_signal_bindings(ckt, op)
    lin = linearize(ckt, op)
    h_mna = ac_transfer(lin, output_net, np.array(frequencies))
    for f, expected in zip(frequencies, h_mna):
        got = h_sym(2j * math.pi * f, bindings)
        assert got == pytest.approx(expected, rel=rel), f"mismatch at {f} Hz"


class TestPassiveDpi:
    def test_resistive_divider(self):
        b = CircuitBuilder("div")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "out", 1e3)
        b.r("out", "gnd", 3e3)
        ckt = b.build()
        graph, src = build_sfg(ckt)
        h = mason_gain(graph, src, "out")
        bindings = small_signal_bindings(ckt, solve_dc(ckt))
        assert h(0.0, bindings) == pytest.approx(0.75, rel=1e-12)

    def test_rc_lowpass_pole(self):
        b = CircuitBuilder("rc")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "out", 1e3)
        b.c("out", "gnd", 1e-9)
        ckt = b.build()
        graph, src = build_sfg(ckt)
        h = mason_gain(graph, src, "out")
        bindings = small_signal_bindings(ckt, solve_dc(ckt))
        p = h.poles(bindings)
        assert p[0].real == pytest.approx(-1e6, rel=1e-9)

    def test_two_node_ladder_matches_mna(self):
        b = CircuitBuilder("ladder")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "a", 1e3)
        b.c("a", "gnd", 1e-9)
        b.r("a", "out", 2e3)
        b.c("out", "gnd", 0.5e-9)
        cross_validate(b.build(), "out", [1e3, 1e5, 1e6, 1e7])

    def test_bridged_t_matches_mna(self):
        # The bridging cap creates a multi-loop SFG: good Mason stress test.
        b = CircuitBuilder("bridged_t")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "a", 1e3)
        b.r("a", "out", 1e3)
        b.c("a", "gnd", 1e-9)
        b.c("in", "out", 0.2e-9)
        cross_validate(b.build(), "out", [1e4, 1e6, 1e8])

    def test_current_source_input(self):
        b = CircuitBuilder("tia")
        b.i("gnd", "n1", ac=1.0)
        b.r("n1", "gnd", 5e3)
        b.c("n1", "gnd", 1e-12)
        ckt = b.build()
        graph, src = build_sfg(ckt)
        h = mason_gain(graph, src, "n1")
        bindings = small_signal_bindings(ckt, solve_dc(ckt))
        # Transimpedance at DC is the resistor value; current flows into n1.
        assert h(0.0, bindings) == pytest.approx(5e3, rel=1e-9)


class TestActiveDpi:
    def test_common_source_matches_mna(self):
        b = CircuitBuilder("cs", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("in", "gnd", dc=0.9, ac=1.0)
        b.nmos("out", "in", "gnd", w=20e-6, l=0.5e-6)
        b.r("vdd", "out", 20e3)
        b.c("out", "gnd", 1e-12)
        cross_validate(b.build(), "out", [1e3, 1e6, 1e8, 1e9])

    def test_common_source_dc_gain_formula(self):
        b = CircuitBuilder("cs", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("in", "gnd", dc=0.9, ac=1.0)
        b.nmos("out", "in", "gnd", w=20e-6, l=0.5e-6)
        b.r("vdd", "out", 20e3)
        ckt = b.build()
        op = solve_dc(ckt)
        graph, src = build_sfg(ckt)
        h = mason_gain(graph, src, "out")
        bindings = small_signal_bindings(ckt, op)
        m = op.device_ops["m1"]
        expected = -m.gm / (m.gds + 1.0 / 20e3)
        assert h(0.0, bindings) == pytest.approx(expected, rel=1e-9)

    def test_two_stage_miller_matches_mna(self):
        # VCCS-based two-stage with Miller compensation: pole splitting and
        # the famous RHP zero at gm2/Cc.
        gm1, gm2 = 1e-3, 4e-3
        r1, r2 = 200e3, 100e3
        c1, c2, cc = 0.1e-12, 2e-12, 0.5e-12
        b = CircuitBuilder("miller")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "gnd", 1e6)
        b.vccs("gnd", "x", "in", "gnd", gm=gm1)
        b.r("x", "gnd", r1)
        b.c("x", "gnd", c1)
        b.vccs("gnd", "out", "x", "gnd", gm=-gm2)
        b.r("out", "gnd", r2)
        b.c("out", "gnd", c2)
        b.c("x", "out", cc)
        ckt = b.build()
        cross_validate(ckt, "out", [1e2, 1e5, 1e7, 1e9])
        # Check the RHP zero analytically.
        graph, src = build_sfg(ckt)
        h = mason_gain(graph, src, "out")
        bindings = small_signal_bindings(ckt, solve_dc(ckt))
        z = h.zeros(bindings)
        rhp = [zz for zz in z if zz.real > 0]
        assert len(rhp) == 1
        assert rhp[0].real == pytest.approx(gm2 / cc, rel=1e-6)

    def test_source_follower_matches_mna(self):
        b = CircuitBuilder("sf", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("in", "gnd", dc=2.0, ac=1.0)
        b.nmos("vdd", "in", "out", w=50e-6, l=0.25e-6)
        b.i("out", "gnd", dc=200e-6)
        b.c("out", "gnd", 1e-12)
        cross_validate(b.build(), "out", [1e3, 1e7, 1e9])

    def test_cascode_matches_mna(self):
        b = CircuitBuilder("cascode", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("vbias", "gnd", dc=1.8)
        b.v("in", "gnd", dc=0.9, ac=1.0)
        b.nmos("mid", "in", "gnd", w=20e-6, l=0.5e-6, name="m1")
        b.nmos("out", "vbias", "mid", w=20e-6, l=0.5e-6, name="m2")
        b.r("vdd", "out", 50e3)
        b.c("out", "gnd", 0.5e-12)
        cross_validate(b.build(), "out", [1e3, 1e6, 1e8], rel=1e-5)


class TestDpiErrors:
    def test_no_ac_input_rejected(self):
        b = CircuitBuilder("noin")
        b.v("in", "gnd", dc=1.0)
        b.r("in", "out", 1e3)
        b.r("out", "gnd", 1e3)
        with pytest.raises(SfgError, match="no AC input"):
            build_sfg(b.build())

    def test_two_ac_inputs_rejected(self):
        b = CircuitBuilder("two")
        b.v("a", "gnd", ac=1.0)
        b.v("b", "gnd", ac=1.0)
        b.r("a", "out", 1e3)
        b.r("b", "out", 1e3)
        b.r("out", "gnd", 1e3)
        with pytest.raises(SfgError, match="exactly one"):
            build_sfg(b.build())

    def test_non_ground_referenced_source_rejected(self):
        b = CircuitBuilder("float")
        b.v("a", "b", ac=1.0)
        b.r("a", "gnd", 1e3)
        b.r("b", "gnd", 1e3)
        with pytest.raises(SfgError, match="ground-referenced"):
            build_sfg(b.build())

    def test_inductor_rejected(self):
        b = CircuitBuilder("ind")
        b.v("in", "gnd", ac=1.0)
        b.l("in", "out", 1e-9)
        b.r("out", "gnd", 1e3)
        with pytest.raises(SfgError, match="not"):
            build_sfg(b.build())
