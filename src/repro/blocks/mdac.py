"""The switched-capacitor MDAC: capacitor network and settling testbench.

An MDAC samples the input on ``Cs + Cf``, then amplifies the quantization
residue by ``G = (Cs + Cf) / Cf`` while subtracting the sub-ADC's DAC
level.  Block synthesis cares about two numbers — the feedback factor and
the effective load — plus one transient question: does the real opamp
settle to the required accuracy in half a clock period?  This module
provides all three.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.specs.stage import MdacProblem

#: When the settling bench opens its reset switch and steps the DAC [s].
SETTLING_STEP_TIME = 1.0e-9


@dataclass(frozen=True)
class MdacNetwork:
    """Capacitor network of one MDAC stage."""

    #: Sampling capacitor Cs [F].
    cs: float
    #: Feedback capacitor Cf [F].
    cf: float
    #: Opamp input (summing-node) parasitic [F].
    c_in: float
    #: Fixed output load [F].
    c_load: float

    @property
    def gain(self) -> float:
        """Ideal residue gain (Cs + Cf) / Cf."""
        return (self.cs + self.cf) / self.cf

    @property
    def beta(self) -> float:
        """Feedback factor during amplification."""
        return self.cf / (self.cs + self.cf + self.c_in)

    @property
    def c_eff(self) -> float:
        """Effective single-pole load the opamp drives."""
        series = self.cf * (self.cs + self.c_in) / (self.cs + self.cf + self.c_in)
        return self.c_load + series

    @staticmethod
    def from_spec(problem: MdacProblem) -> "MdacNetwork":
        """Build the network from a block's problem (Cs = (G-1) Cf)."""
        cf = problem.cf
        cs = (problem.gain - 1) * cf
        # Invert the problem's beta = cf / (cs + cf + c_in) for the input cap.
        c_in = cf / problem.beta - (cs + cf)
        return MdacNetwork(cs=cs, cf=cf, c_in=max(c_in, 0.0), c_load=problem.c_load)


def build_settling_bench(
    opamp: Circuit,
    network: MdacNetwork,
    tech,
    step_voltage: float,
    common_mode: float,
    step_time: float = SETTLING_STEP_TIME,
    switch_r_on: float = 200.0,
) -> tuple[Circuit, float]:
    """Closed-loop amplification-phase testbench around a real opamp.

    Phase 1 (t < step_time): a reset switch shorts the output to the
    summing node, putting the amplifier in unity feedback — this both sets
    a well-defined DC state and mimics the MDAC reset.  Phase 2: the switch
    opens and the DAC-side source steps by ``step_voltage``; the output
    must slew and settle to ``-Cs/Cf * step`` around its reset value.

    Returns ``(bench, ideal_step)`` where ``ideal_step`` is the expected
    output change after perfect settling.
    """
    bench = Circuit(f"bench_{opamp.name}")
    for element in opamp:
        bench.add(element)

    b = CircuitBuilder("tb", tech=tech)
    b.v("vdd", "gnd", dc=tech.vdd, name="vdd_src")
    b.v("inp", "gnd", dc=common_mode, name="vcm_src")

    def dac_wave(t: float, v0: float = common_mode) -> float:
        return v0 + (step_voltage if t >= step_time else 0.0)

    b.v("dac", "gnd", dc=common_mode, waveform=dac_wave, name="vdac")
    b.c("dac", "sum", network.cs, name="cs")
    b.c("sum", "out", network.cf, name="cf")
    if network.c_in > 0:
        b.c("sum", "gnd", network.c_in, name="cin_par")
    b.c("out", "gnd", network.c_load, name="cl")
    b.switch("out", "sum", phase=lambda t: t < step_time, r_on=switch_r_on, name="sreset")

    for element in b.circuit:
        bench.add(element)
    # The opamp's inverting input is the summing node.
    _rename_net(bench, "inm", "sum")

    ideal_step = -step_voltage * network.cs / network.cf
    return bench, ideal_step


def _rename_net(circuit: Circuit, old: str, new: str) -> None:
    """Rename a net across all elements (used to wire the opamp input)."""
    import dataclasses

    for element in list(circuit):
        changes = {}
        for field in dataclasses.fields(element):
            value = getattr(element, field.name)
            if isinstance(value, str) and value == old:
                changes[field.name] = new
        if changes:
            circuit.replace(dataclasses.replace(element, **changes))
