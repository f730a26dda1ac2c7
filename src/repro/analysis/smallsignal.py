"""Linearization: build small-signal G and C matrices at a DC operating point.

The linearized circuit is the bridge between the nonlinear netlist and every
frequency-domain analysis (AC, poles/zeros, noise).  It is also what the
DPI/SFG construction consumes: each entry of G/C is a branch admittance the
signal-flow graph can be read from.

G, C and the AC excitation come from the circuit's compiled stamp program
(:meth:`repro.analysis.template.BoundMna.linearize`); the noise sources
come from a short pass of their own.  The per-element stamp walk the
program replays bit for bit is the oracle in
``tests/analysis/mna_reference.py``.
"""

from __future__ import annotations

from repro.analysis.dc import DcSolution, solve_dc
from repro.analysis.mna import LinearizedCircuit, MnaLayout
from repro.analysis.template import bind_template
from repro.circuit.elements import Mosfet, Resistor
from repro.circuit.netlist import Circuit
from repro.constants import KT_ROOM
from repro.tech.mosfet import flicker_noise_psd, thermal_noise_psd


def linearize(
    circuit: Circuit,
    op: DcSolution | None = None,
    include_noise: bool = True,
) -> LinearizedCircuit:
    """Linearize ``circuit`` around its DC operating point.

    Solves DC first if ``op`` is not supplied, on the same bound stamp
    program that then fills the matrices.  Independent sources keep their
    ``ac`` magnitudes in the excitation vector; DC values are zeroed
    (superposition around the operating point).  ``include_noise=False``
    leaves the noise-source list empty.
    """
    bound = bind_template(circuit)
    if op is None:
        op = solve_dc(circuit, assembly=bound)
    linear = bound.linearize(op)
    if include_noise:
        linear.noise_sources = _noise_sources(circuit, linear.layout, op)
    return linear


def _noise_sources(
    circuit: Circuit, layout: MnaLayout, op: DcSolution
) -> list[tuple[str, int, int, object]]:
    """Every resistor's thermal noise and every MOSFET's channel noise.

    In netlist order, as ``(label, node_p, node_n, psd_fn)``: a resistor
    injects between its terminals, a MOSFET between drain and source.
    """
    sources: list[tuple[str, int, int, object]] = []
    for element in circuit:
        if isinstance(element, Resistor):
            psd = 4.0 * KT_ROOM * (1.0 / element.resistance)

            def resistor_psd(frequency_hz: float, _psd=psd) -> float:
                return _psd

            sources.append(
                (
                    element.name,
                    layout.index(element.n1),
                    layout.index(element.n2),
                    resistor_psd,
                )
            )
        elif isinstance(element, Mosfet):
            params, w, l = element.params, element.w * element.mult, element.l
            gm = op.device_ops[element.name].gm

            def mosfet_psd(
                frequency_hz: float, _params=params, _w=w, _l=l, _gm=gm
            ) -> float:
                return thermal_noise_psd(_params, _gm) + flicker_noise_psd(
                    _params, _w, _l, _gm, frequency_hz
                )

            sources.append(
                (
                    element.name,
                    layout.index(element.drain),
                    layout.index(element.source),
                    mosfet_psd,
                )
            )
    return sources
