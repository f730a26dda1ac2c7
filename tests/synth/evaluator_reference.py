"""The per-element equation path, kept as the oracle of the compiled evaluator.

:class:`ReferenceEvaluator` is :class:`~repro.synth.evaluator.HybridEvaluator`
as it evaluated a candidate before the compiled kernels: the DC operating
point comes from the per-element stamp walk (``solve_dc`` with no
assembly), the small-signal model from :func:`~repro.analysis.smallsignal.linearize`,
and the amplifier transfer from two per-frequency sweeps, the DC-gain
point and then the loop grid (``tests/analysis/ac_reference.py``).
Everything else (testbench, warm-start chain, margins, transient
verification, cost) is inherited, so any difference from the compiled
evaluator comes from the equation path alone.

Its ``evaluate`` takes a ``reject`` callback and ignores it: every
candidate gets its loop sweep, so a search on the oracle is the unpruned
search a rejecting one must reproduce.

``tests/synth/test_kernel_equivalence.py`` and
``tests/campaign/test_kernel_determinism.py`` require the compiled path
to reproduce it bit for bit; the component benches in ``benchmarks/``
time it as the reference side.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.smallsignal import linearize
from repro.errors import AnalysisError, ConvergenceError, ReproError
from repro.synth.evaluator import (
    DIFFERENTIAL_FACTOR,
    EvalResult,
    HybridEvaluator,
    _StagedEvaluation,
)
from tests.analysis.ac_reference import ac_transfer


class ReferenceEvaluator(HybridEvaluator):
    """The evaluator's equation half on the per-element walks."""

    def evaluate(self, sizing, run_transient: bool = False, reject=None) -> EvalResult:
        return super().evaluate(sizing, run_transient)

    def _transfer(self, lin, freqs) -> np.ndarray:
        # The seed's per-frequency sweep, once per grid.
        return ac_transfer(lin, "out", freqs)

    def _stage_equation(self, sizing) -> _StagedEvaluation:
        self.equation_evals += 1
        staged = _StagedEvaluation(sizing=sizing)
        bench = self._ac_bench(sizing)
        try:
            op = self._solve_dc(bench, assembly=None)
        except (ConvergenceError, ReproError):
            staged.failed = True
            return staged
        staged.power = (
            self.tech.vdd
            * abs(op.supply_current("vdd_src"))
            * DIFFERENTIAL_FACTOR
        )
        staged.saturation = self._saturation_margin(op)
        try:
            staged.lin = linearize(bench, op, include_noise=False)
        except (AnalysisError, ReproError):
            staged.failed = True
        return staged
