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
It reads each DC solution through its packaged ``voltages``,
``branch_currents`` and ``device_ops`` objects, where the compiled
evaluator reads the solution vector and the device arrays, and it
unwraps the loop phase over the whole grid, where the compiled evaluator
stops at the unity crossing.  Everything else (testbench, warm-start
chain, transient verification, cost) is inherited, so any difference
from the compiled evaluator comes from the equation path alone.

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
from repro.analysis.dc import DcSolution
from repro.errors import ConvergenceError, ReproError
from repro.synth.evaluator import (
    _LOOP_FREQS,
    _SIGNAL_DEVICES,
    DIFFERENTIAL_FACTOR,
    EvalResult,
    HybridEvaluator,
    _StagedEvaluation,
    _unity_crossing,
)
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

    def _stage_equation(self, sizing) -> _StagedEvaluation:
        self.equation_evals += 1
        staged = _StagedEvaluation(sizing, self._bind(sizing))
        try:
            op = self._solve_dc(staged.assembly)
        except (ConvergenceError, ReproError):
            return staged
        staged.op = op
        staged.power = (
            self.tech.vdd
            * abs(op.supply_current("vdd_src"))
            * DIFFERENTIAL_FACTOR
        )
        staged.saturation = self._saturation_margin(op)
        return staged

    def _solve_dc(self, assembly) -> DcSolution:
        if self._warm_x is not None:
            try:
                op = self._counted_dc(assembly, x0=self._warm_x)
                if not self._degenerate(op):
                    self._warm_x = op.x
                    return op
            except (ConvergenceError, ReproError):
                pass
        op = self._counted_dc(assembly, initial_guess=self._dc_guess())
        if self._degenerate(op):
            raise ConvergenceError("amplifier stuck in a degenerate operating point")
        self._warm_x = op.x
        return op

    def _degenerate(self, op: DcSolution) -> bool:
        vout = op.voltages.get("out", 0.0)
        if not 0.15 * self.tech.vdd < vout < 0.85 * self.tech.vdd:
            return True
        m2 = op.device_ops.get("m2")
        return m2 is not None and m2.region == "cutoff"

    def _saturation_margin(self, op: DcSolution) -> float:
        margins = []
        for name in _SIGNAL_DEVICES:
            if name not in op.device_ops:
                continue
            device = op.device_ops[name]
            margins.append(abs(device.vds) - device.vdsat)
        return min(margins) if margins else -1.0

    def _system(self, staged):
        bench = staged.assembly.layout.circuit
        lin = linearize(bench, staged.op, include_noise=False)
        return FreeNodes(lin.layout).reduce(lin)

    def _transfer(self, system, freqs, s) -> np.ndarray:
        # A per-frequency sweep, once per read-out.
        return free_transfer(system, "out", freqs)

    def _loop_margin_values(self, a):
        crossing = _unity_crossing(_LOOP_FREQS, np.abs(a) * self.network.beta)
        if crossing is None:
            return None, None
        k, t, fx = crossing
        # The whole grid's unwrapped phase, at the log-interpolated crossing.
        phase = np.degrees(np.unwrap(np.angle(a)))
        ph = phase[k] * (1 - t) + phase[k + 1] * t
        return fx, 180.0 + ph
