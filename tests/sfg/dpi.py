"""Build a signal-flow graph from a circuit by the DPI method.

The Driving-Point Impedance formulation rewrites each node equation

``sum_j Y[k,j] * V_j = I_k``   as   ``V_k = Z_k * (I_k - sum_{j!=k} Y[k,j] V_j)``

with ``Z_k = 1 / Y[k,k]`` the driving-point impedance of node ``k``.  Each
term becomes an SFG branch, so Mason's rule recovers any transfer function
symbolically.  Admittances are built from *named symbols* — one per element
parameter (``g_r1``, ``c_cl``, ``gm_m1``, ``cgs_m1``, ...) — and
:func:`small_signal_bindings` extracts their numeric values from a DC
solution: exactly the paper's "DC simulation to extract small-signal values,
then formulate the numerical transfer function" flow.

Conventions:

* Nets driven by DC-only voltage sources (supplies, bias) are AC grounds.
* The input is the single source carrying a nonzero ``ac`` value; a voltage
  input's positive net becomes the SFG source node, a current input adds a
  source node named after the element.
* VCVS and inductors are not supported in DPI mode (not needed for the
  MDAC/opamp circuits this flow targets).
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.dc import DcSolution
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Mosfet,
    Resistor,
    Switch,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuit.netlist import GROUND_NAMES, Circuit
from tests.sfg.graph import SfgError, SignalFlowGraph
from tests.symbolic import Poly, RationalFunction, Sym
from tests.symbolic.ratfunc import as_ratfunc


def _classify_nodes(circuit: Circuit) -> tuple[str | None, set[str]]:
    """Find the AC input net (or None for current input) and AC-ground nets."""
    ac_grounds: set[str] = set()
    input_net: str | None = None
    for element in circuit.elements_of(VoltageSource):
        pos, neg = element.positive, element.negative
        if neg not in GROUND_NAMES:
            raise SfgError(
                f"voltage source {element.name!r} must be ground-referenced for DPI"
            )
        if element.ac != 0.0:
            if input_net is not None:
                raise SfgError("DPI supports exactly one AC input source")
            input_net = pos
        else:
            ac_grounds.add(pos)
    return input_net, ac_grounds


def build_sfg(circuit: Circuit, name: str | None = None) -> tuple[SignalFlowGraph, str]:
    """Build the DPI signal-flow graph of ``circuit``.

    Returns ``(graph, input_node)``.  The graph's signal nodes are the net
    names; use :func:`tests.sfg.mason.mason_gain` with the input node and an
    output net to obtain the symbolic transfer function.
    """
    input_net, ac_grounds = _classify_nodes(circuit)

    current_inputs = [e for e in circuit.elements_of(CurrentSource) if e.ac != 0.0]
    if input_net is None and not current_inputs:
        raise SfgError("circuit has no AC input (set ac= on one source)")
    if (input_net is not None and current_inputs) or len(current_inputs) > 1:
        raise SfgError("DPI supports exactly one AC input source")

    def node_kind(net: str) -> str:
        if net in GROUND_NAMES or net in ac_grounds:
            return "ground"
        if input_net is not None and net == input_net:
            return "input"
        return "signal"

    signal_nets = [n for n in circuit.non_ground_nets() if node_kind(n) == "signal"]

    # Matrix-entry bookkeeping: entry[(k, j)] accumulates Y[k, j] for rows k
    # that are signal nodes; columns j may be signal or input nodes.
    # diag[k] holds Y[k, k]; rhs[k] holds direct current injections.
    diag: dict[str, RationalFunction] = defaultdict(RationalFunction.zero)
    entry: dict[tuple[str, str], RationalFunction] = defaultdict(RationalFunction.zero)
    rhs: dict[str, RationalFunction] = defaultdict(RationalFunction.zero)

    def add_entry(row: str, col: str, value: RationalFunction) -> None:
        """Accumulate the matrix entry Y[row, col] (row must be a signal node)."""
        kind_col = node_kind(col)
        if kind_col == "ground":
            return
        if col == row:
            diag[row] = diag[row] + value
        else:
            entry[(row, col)] = entry[(row, col)] + value

    def stamp_admittance(n1: str, n2: str, y: RationalFunction) -> None:
        """Two-terminal admittance: Y[a,a] += y, Y[a,b] -= y (both rows)."""
        for a, b in ((n1, n2), (n2, n1)):
            if node_kind(a) != "signal":
                continue
            diag[a] = diag[a] + y
            add_entry(a, b, -y)

    def stamp_vccs(op_: str, on_: str, cp: str, cn: str, gm: RationalFunction) -> None:
        """Current gm*(v_cp - v_cn) leaving op_ into on_."""
        for row, row_sign in ((op_, 1.0), (on_, -1.0)):
            if node_kind(row) != "signal":
                continue
            for ctrl, ctrl_sign in ((cp, 1.0), (cn, -1.0)):
                add_entry(row, ctrl, gm * (row_sign * ctrl_sign))

    for element in circuit:
        if isinstance(element, (Resistor, Switch)):
            g = as_ratfunc(Sym(f"g_{element.name}"))
            stamp_admittance(element.nodes[0], element.nodes[1], g)
        elif isinstance(element, Capacitor):
            y = RationalFunction(Poly([0.0, Sym(f"c_{element.name}")]))
            stamp_admittance(element.n1, element.n2, y)
        elif isinstance(element, VoltageSource):
            continue  # classified already
        elif isinstance(element, CurrentSource):
            continue  # handled below (input) or open (dc bias)
        elif isinstance(element, Vccs):
            stamp_vccs(
                element.out_positive,
                element.out_negative,
                element.ctrl_positive,
                element.ctrl_negative,
                as_ratfunc(Sym(f"gm_{element.name}")),
            )
        elif isinstance(element, Mosfet):
            n = element.name
            d, g_, s, b = element.drain, element.gate, element.source, element.bulk
            stamp_vccs(d, s, g_, s, as_ratfunc(Sym(f"gm_{n}")))
            stamp_vccs(d, s, b, s, as_ratfunc(Sym(f"gmb_{n}")))
            stamp_admittance(d, s, as_ratfunc(Sym(f"gds_{n}")))
            for cap_name, t1, t2 in (
                ("cgs", g_, s),
                ("cgd", g_, d),
                ("cgb", g_, b),
                ("cdb", d, b),
                ("csb", s, b),
            ):
                y = RationalFunction(Poly([0.0, Sym(f"{cap_name}_{n}")]))
                stamp_admittance(t1, t2, y)
        elif isinstance(element, (Vcvs, Inductor)):
            raise SfgError(
                f"element {element.name!r} ({type(element).__name__}) is not "
                "supported by the DPI/SFG construction"
            )
        else:
            raise SfgError(f"unsupported element type {type(element).__name__}")

    # Current-source input: SPICE convention removes current from the
    # positive terminal, so I_k = -1 at positive, +1 at negative.
    source_node = input_net
    for src in current_inputs:
        source_node = src.name
        if node_kind(src.positive) == "signal":
            rhs[src.positive] = rhs[src.positive] - as_ratfunc(1.0)
        if node_kind(src.negative) == "signal":
            rhs[src.negative] = rhs[src.negative] + as_ratfunc(1.0)

    graph = SignalFlowGraph(name or f"sfg_{circuit.name}")
    graph.add_node(source_node)
    for net in signal_nets:
        graph.add_node(net)

    for k in signal_nets:
        y_kk = diag[k]
        if y_kk.is_zero():
            raise SfgError(f"node {k!r} has no self-admittance; DPI undefined")
        # V_k = (I_k - sum_{j!=k} Y[k,j] V_j) / Y[k,k]
        for (row, j), y_kj in entry.items():
            if row != k or y_kj.is_zero():
                continue
            graph.add_branch(j, k, -y_kj / y_kk)
        injection = rhs[k]
        if not injection.is_zero():
            graph.add_branch(source_node, k, injection / y_kk)

    return graph, source_node


def small_signal_bindings(circuit: Circuit, op: DcSolution) -> dict[str, float]:
    """Numeric values for every symbol the DPI construction may emit.

    Resistors/switches bind their conductance, capacitors their value, and
    MOSFETs bind gm/gds/gmb and the five compact-model capacitances from the
    operating point ``op``.
    """
    bindings: dict[str, float] = {}
    for element in circuit:
        if isinstance(element, Resistor):
            bindings[f"g_{element.name}"] = 1.0 / element.resistance
        elif isinstance(element, Switch):
            bindings[f"g_{element.name}"] = 1.0 / element.resistance_at(0.0)
        elif isinstance(element, Capacitor):
            bindings[f"c_{element.name}"] = element.capacitance
        elif isinstance(element, Vccs):
            bindings[f"gm_{element.name}"] = element.gm
        elif isinstance(element, Mosfet):
            device = op.device_ops[element.name]
            n = element.name
            bindings[f"gm_{n}"] = device.gm
            bindings[f"gds_{n}"] = device.gds
            bindings[f"gmb_{n}"] = device.gmb
            bindings[f"cgs_{n}"] = device.cgs
            bindings[f"cgd_{n}"] = device.cgd
            bindings[f"cgb_{n}"] = device.cgb
            bindings[f"cdb_{n}"] = device.cdb
            bindings[f"csb_{n}"] = device.csb
    return bindings
