"""Driving-Point Impedance / Signal-Flow Graph circuit analysis: a test oracle.

The paper derives each block's transfer function symbolically:

1. :mod:`tests.sfg.dpi` reads a linear(ized) circuit and builds its
   signal-flow graph by the Driving-Point Impedance method: each node
   equation ``V_k = Z_k * (I_k + sum_j y_kj V_j)`` becomes a set of SFG
   branches with rational-function weights carrying *symbolic* small-signal
   parameters (``gm_m1``, ``cgs_m2``, ...).
2. :mod:`tests.sfg.mason` applies Mason's gain formula to the graph,
   producing the symbolic transfer function.
3. Binding the symbols to values extracted from a DC simulation yields the
   "numerical transfer function" the paper evaluates in each synthesis
   iteration.

The library solves the equivalent linearized MNA system instead
(:mod:`repro.synth.evaluator`), so this engine runs only in the tests,
where it cross-checks the MNA AC path and the relations
:mod:`repro.synth.space` hand-codes.
"""

from tests.sfg.graph import SfgError, SignalFlowGraph
from tests.sfg.mason import mason_gain
from tests.sfg.dpi import build_sfg, small_signal_bindings

__all__ = [
    "SfgError",
    "SignalFlowGraph",
    "mason_gain",
    "build_sfg",
    "small_signal_bindings",
]
