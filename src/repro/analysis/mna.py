"""Modified nodal analysis: the unknown layout and the small-signal system.

Sign conventions (used consistently across DC/AC/transient):

* Node equations state that the sum of currents *leaving* the node is zero.
* A current source drives positive current from its ``positive`` terminal
  through the source to its ``negative`` terminal (SPICE convention), so it
  contributes ``-I`` to the RHS of the positive node's equation.
* Branch currents (voltage sources, VCVS, inductors) flow from the branch's
  positive terminal through the element to the negative terminal.

Every matrix is filled by the compiled stamp program of
:mod:`repro.analysis.template`.  The per-element stamp walk it replays bit
for bit is the oracle in ``tests/analysis/mna_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.circuit.elements import Inductor, Vcvs, VoltageSource
from repro.circuit.netlist import GROUND_NAMES, Circuit
from repro.errors import NetlistError

if TYPE_CHECKING:
    from repro.analysis.dc import DcSolution

#: Index used for ground (rows/columns are simply skipped).
GROUND = -1


class MnaLayout:
    """Assigns MNA unknown indices for a circuit.

    Unknowns are the non-ground node voltages followed by one branch current
    per voltage-defined element (independent V source, VCVS, inductor).
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        nets = circuit.non_ground_nets()
        self.node_of = {net: i for i, net in enumerate(nets)}
        self.nets = nets
        branch_elements = [
            e for e in circuit if isinstance(e, (VoltageSource, Vcvs, Inductor))
        ]
        self.branch_of = {
            e.name: len(nets) + k for k, e in enumerate(branch_elements)
        }
        self.branch_elements = branch_elements
        self.size = len(nets) + len(branch_elements)

    def with_circuit(self, circuit: Circuit) -> "MnaLayout":
        """A shallow rebind of this layout onto a same-topology circuit.

        Index maps are shared (they depend only on the topology); the
        circuit reference — which analyses walk for element *values* and
        errors name — is swapped, so each bind of a compiled template
        (:class:`repro.analysis.template.MnaTemplate`, which owns its
        topology's one layout) reads and names its own circuit.
        """
        clone = object.__new__(MnaLayout)
        clone.circuit = circuit
        clone.node_of = self.node_of
        clone.nets = self.nets
        clone.branch_of = self.branch_of
        clone.branch_elements = [circuit[e.name] for e in self.branch_elements]
        clone.size = self.size
        return clone

    def index(self, net: str) -> int:
        """Unknown index of a net; :data:`GROUND` for the reference node."""
        if net in GROUND_NAMES:
            return GROUND
        try:
            return self.node_of[net]
        except KeyError:
            raise NetlistError(f"net {net!r} not in circuit {self.circuit.name!r}") from None

    def branch(self, element_name: str) -> int:
        """Unknown index of a branch current."""
        try:
            return self.branch_of[element_name]
        except KeyError:
            raise NetlistError(
                f"element {element_name!r} has no branch current"
            ) from None

    def voltages(self, x: np.ndarray) -> dict[str, float]:
        """Extract node voltages (ground included as 0) from a solution."""
        out = {net: float(x[i]) for net, i in self.node_of.items()}
        out["gnd"] = 0.0
        return out


@dataclass
class LinearizedCircuit:
    """Small-signal view: (G + sC) x = b with noise-source bookkeeping."""

    layout: MnaLayout
    #: Conductance matrix (real).
    g_matrix: np.ndarray
    #: Capacitance matrix (real); system is G + s*C.
    c_matrix: np.ndarray
    #: AC excitation vector (from source ``ac`` values).
    b_ac: np.ndarray
    #: The DC solution this linearization was taken at.
    op: DcSolution
    #: Noise sources: (label, node_p, node_n, psd_fn(frequency_hz) -> A^2/Hz).
    noise_sources: list[tuple[str, int, int, object]]

    @property
    def size(self) -> int:
        """Number of MNA unknowns."""
        return self.layout.size

    def index(self, net: str) -> int:
        """Unknown index of a net (GROUND for the reference)."""
        return self.layout.index(net)

    def system_at(self, s: complex) -> np.ndarray:
        """The complex MNA matrix G + s*C."""
        return self.g_matrix + s * self.c_matrix

    @property
    def c_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """C's nonzero cells ``(rows, cols, values)``, the values as a column."""
        rows, cols = np.nonzero(self.c_matrix)
        return rows, cols, self.c_matrix[rows, cols][:, None]
