"""Transistor-level opamp netlist generators.

Each builder returns a complete amplifier netlist with nets
``vdd, gnd, inp, inm, out`` plus internal nodes.  Bias generators are
abstracted as ideal current sources and (for cascode gates) ideal voltage
sources — their silicon cost is carried by the power model's fixed
overhead, as in any sizing-tool setup where the bias cell is a shared
library block.

The two-stage Miller's sizing-to-value equations are stated once, in
:func:`two_stage_miller_values`: one value per element, in netlist order.
:func:`build_two_stage_miller` builds its elements from them, and the
synthesis evaluator (:mod:`repro.synth.evaluator`) writes them straight
into the testbench's bound stamp program, without a netlist per
candidate.

The testbench (supplies, input common mode, feedback, load) is added by the
caller; see :func:`repro.blocks.mdac.build_settling_bench` and
:mod:`repro.synth.evaluator`.
"""

from __future__ import annotations

import math

from repro.blocks.opamp import FoldedCascodeSizing, TwoStageSizing
from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.tech.process import Technology

#: Net names every opamp builder exposes.
OPAMP_PORTS = ("vdd", "gnd", "inp", "inm", "out")


def estimate_gm(kp: float, w: float, l: float, drain_current: float) -> float:
    """Square-law transconductance estimate sqrt(2 kp (W/L) Id)."""
    return math.sqrt(2.0 * kp * (w / l) * abs(drain_current))


def two_stage_miller_values(tech: Technology, sizing: TwoStageSizing) -> tuple:
    """Every value ``sizing`` sets in the two-stage Miller, in netlist order.

    One entry per element :func:`build_two_stage_miller` adds, in the order
    it adds them: the bias current ``ibias``, the ``(w, l)`` of ``mb``,
    ``mtail``, ``m1``, ``m2``, ``m3``, ``m4``, ``m6`` and ``m7``, the
    nulling resistance ``rz`` and the Miller capacitance ``cc``.
    """
    mirror = (sizing.w_tail, sizing.l_mirror)
    pair = (sizing.w_input, sizing.l_input)
    load = (sizing.w_load, sizing.l_mirror)
    # The nulling resistor sits at ~1/gm6 of the second stage.
    gm6 = estimate_gm(tech.pmos.kp, sizing.w_stage2, sizing.l_input, sizing.i_stage2)
    return (
        sizing.i_tail,
        mirror,
        mirror,
        pair,
        pair,
        load,
        load,
        (sizing.w_stage2, sizing.l_input),
        (sizing.w_tail * sizing.stage2_ratio, sizing.l_mirror),
        max(1.0 / gm6, 1.0),
        sizing.c_comp,
    )


def build_two_stage_miller(
    tech: Technology, sizing: TwoStageSizing, name: str = "ota2"
) -> Circuit:
    """Two-stage Miller opamp: NMOS pair, PMOS mirror, PMOS CS output.

    The Miller capacitor has a series nulling resistor at 1/gm of the
    second stage, which pushes the right-half-plane zero to infinity.
    """
    i_bias, mb, mtail, m1, m2, m3, m4, m6, m7, rz, cc = two_stage_miller_values(
        tech, sizing
    )
    b = CircuitBuilder(name, tech=tech)

    # Bias: reference current into an NMOS diode sets the mirror gate.
    b.i("vdd", "nbias", dc=i_bias, name="ibias")
    b.nmos("nbias", "nbias", "gnd", w=mb[0], l=mb[1], name="mb")

    # Tail and first stage.  The mirror-diode side (m1) is driven by the
    # inverting input: rising inm lifts o1, and the PMOS second stage then
    # pulls out down — so "inp" is the non-inverting input as labelled.
    b.nmos("tail", "nbias", "gnd", w=mtail[0], l=mtail[1], name="mtail")
    b.nmos("x", "inm", "tail", w=m1[0], l=m1[1], name="m1")
    b.nmos("o1", "inp", "tail", w=m2[0], l=m2[1], name="m2")
    b.pmos("x", "x", "vdd", "vdd", w=m3[0], l=m3[1], name="m3")
    b.pmos("o1", "x", "vdd", "vdd", w=m4[0], l=m4[1], name="m4")

    # Second stage: PMOS common source with mirrored NMOS sink.
    b.pmos("out", "o1", "vdd", "vdd", w=m6[0], l=m6[1], name="m6")
    b.nmos("out", "nbias", "gnd", w=m7[0], l=m7[1], name="m7")

    # Miller compensation with nulling resistor ~ 1/gm6.
    b.r("o1", "nz", rz, name="rz")
    b.c("nz", "out", cc, name="cc")

    return b.build(validate=False)


def build_folded_cascode(
    tech: Technology, sizing: FoldedCascodeSizing, name: str = "otafc"
) -> Circuit:
    """Folded-cascode OTA: NMOS input pair folding into PMOS cascodes.

    Cascode gate biases are ideal sources placed for nominal headroom; the
    synthesis evaluator checks every device's saturation margin, so sizings
    that break the bias plan are rejected by constraints rather than by
    construction.
    """
    b = CircuitBuilder(name, tech=tech)

    i_source = 0.5 * sizing.i_tail + sizing.i_fold

    # Bias generators.
    b.i("vdd", "nbias", dc=sizing.i_tail, name="ibias_tail")
    b.nmos("nbias", "nbias", "gnd", w=sizing.w_mirror, l=sizing.l_mirror, name="mbn")
    b.i("pbias", "gnd", dc=i_source, name="ibias_src")
    b.pmos("pbias", "pbias", "vdd", "vdd", w=sizing.w_source, l=sizing.l_mirror, name="mbp")
    # Cascode gate biases (ideal): leave ~0.55 V for source devices, and a
    # cascode gate-source drop around 0.85-1.0 V.
    b.v("vcp", "gnd", dc=tech.vdd - 1.45, name="vbcp")
    b.v("vcn", "gnd", dc=1.45, name="vbcn")

    # Input pair with mirrored tail.
    b.nmos("tail", "nbias", "gnd", w=sizing.w_mirror, l=sizing.l_mirror, name="mtail")
    b.nmos("f1", "inp", "tail", w=sizing.w_input, l=sizing.l_input, name="m1")
    b.nmos("f2", "inm", "tail", w=sizing.w_input, l=sizing.l_input, name="m2")

    # PMOS current sources feeding the folding nodes.
    b.pmos("f1", "pbias", "vdd", "vdd", w=sizing.w_source, l=sizing.l_mirror, name="ms1")
    b.pmos("f2", "pbias", "vdd", "vdd", w=sizing.w_source, l=sizing.l_mirror, name="ms2")

    # PMOS cascodes from the folding nodes down to the output branch.
    b.pmos("d1", "vcp", "f1", "vdd", w=sizing.w_cascode_p, l=sizing.l_input, name="mcp1")
    b.pmos("out", "vcp", "f2", "vdd", w=sizing.w_cascode_p, l=sizing.l_input, name="mcp2")

    # NMOS cascoded mirror at the bottom (diode side on branch 1).
    b.nmos("d1", "vcn", "s1", w=sizing.w_cascode_n, l=sizing.l_input, name="mcn1")
    b.nmos("out", "vcn", "s2", w=sizing.w_cascode_n, l=sizing.l_input, name="mcn2")
    b.nmos("s1", "d1", "gnd", w=sizing.w_mirror, l=sizing.l_mirror, name="mm1")
    b.nmos("s2", "d1", "gnd", w=sizing.w_mirror, l=sizing.l_mirror, name="mm2")

    return b.build(validate=False)
