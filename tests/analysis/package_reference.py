"""How ``solve_dc`` packaged a solution before the bound device loop.

``package`` is ``repro.analysis.dc._package`` as it was when every MOSFET's
operating point came from its own ``operating_point`` call (at the
multiplied width, on voltages read back from the packaged dict) and every
point went through the frozen dataclass's ``__init__``.  The model it calls
is the pre-hoisting copy in ``tests/tech/mosfet_reference.py``, so this
oracle shares no code with the package's device loop.
:class:`~tests.analysis.mna_reference.WalkAssembly` packages its solutions
with it, and ``tests/analysis/test_package.py`` holds ``solve_dc`` to it
field for field.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.dc import DcSolution
from repro.analysis.mna import MnaLayout
from repro.circuit.elements import Mosfet
from repro.tech.mosfet import MosfetOperatingPoint
from tests.tech.mosfet_reference import operating_point


def voltages(layout: MnaLayout, x: np.ndarray) -> dict[str, float]:
    """The packaged node voltages, ground under ``gnd`` and ``0``."""
    out = layout.voltages(x)
    out.setdefault("0", 0.0)
    return out


def device_ops(layout: MnaLayout, x: np.ndarray) -> dict[str, MosfetOperatingPoint]:
    """Every MOSFET's operating point, one model call per device."""
    volts = voltages(layout, x)

    def v(net: str) -> float:
        return 0.0 if net in ("0", "gnd", "GND") else volts[net]

    ops: dict[str, MosfetOperatingPoint] = {}
    for element in layout.circuit.elements_of(Mosfet):
        ops[element.name] = operating_point(
            element.params,
            element.w * element.mult,
            element.l,
            v(element.gate) - v(element.source),
            v(element.drain) - v(element.source),
            v(element.bulk) - v(element.source),
        )
    return ops


def package(
    layout: MnaLayout, x: np.ndarray, iterations: int, strategy: str, residual: float
) -> DcSolution:
    """The :class:`~repro.analysis.dc.DcSolution` of ``x``."""
    return DcSolution(
        voltages=voltages(layout, x),
        branch_currents={
            e.name: float(x[layout.branch(e.name)]) for e in layout.branch_elements
        },
        device_ops=device_ops(layout, x),
        x=x,
        iterations=iterations,
        strategy=strategy,
        residual=residual,
    )
