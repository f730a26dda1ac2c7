"""The per-element equation path, kept as the oracle of the compiled evaluator.

:class:`ReferenceEvaluator` is :class:`~repro.synth.evaluator.HybridEvaluator`
as it evaluated a candidate before the compiled kernels: the DC operating
point and the small-signal model come from the per-element stamp walk
(``tests/analysis/mna_reference.py``: ``solve_dc`` with a
:class:`~tests.analysis.mna_reference.WalkAssembly`, and its
``linearize``), and the amplifier transfer from per-frequency sweeps of
the bench's free-node system, one per read-out of the staged path
(``tests/analysis/ac_reference.py``), with the free nodes worked out from
each candidate's own layout.
It also keeps the netlist path per candidate: its ``_bind`` builds the
candidate's testbench (``_ac_bench``) and walks it, where the compiled
evaluator writes the sizing's values into a program bound once.
Everything else (testbench, warm-start chain, margins, transient
verification, cost) is inherited, so any difference from the compiled
evaluator comes from the equation path alone.

Its ``evaluate`` takes a ``reject`` callback and ignores it: every
candidate gets its whole loop grid, so a search on the oracle is the
unpruned search a rejecting one must reproduce.

``tests/synth/test_kernel_equivalence.py`` and
``tests/campaign/test_kernel_determinism.py`` require the compiled path
to reproduce it bit for bit; the component benches in ``benchmarks/``
time it as the reference side.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.ac import FreeNodes
from repro.synth.evaluator import EvalResult, HybridEvaluator
from tests.analysis.ac_reference import free_transfer
from tests.analysis.mna_reference import WalkAssembly, linearize


class ReferenceEvaluator(HybridEvaluator):
    """The evaluator's equation half on the per-element walks."""

    def evaluate(self, sizing, run_transient: bool = False, reject=None) -> EvalResult:
        return super().evaluate(sizing, run_transient)

    def _bind(self, sizing):
        # A testbench per candidate and no stamp template: solve_dc walks
        # its elements.
        return WalkAssembly(self._ac_bench(sizing))

    def _linearize(self, staged):
        bench = staged.assembly.layout.circuit
        return linearize(bench, staged.op, include_noise=False)

    def _reduce(self, lin):
        return FreeNodes(lin.layout).reduce(lin)

    def _transfer(self, system, freqs) -> np.ndarray:
        # A per-frequency sweep, once per read-out.
        return free_transfer(system, "out", freqs)
