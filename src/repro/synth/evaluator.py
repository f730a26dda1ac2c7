"""Hybrid equation + simulation evaluation of one sizing candidate.

Mirrors the paper's Section 3 evaluation procedure exactly:

1. **DC simulation** of the amplifier testbench extracts the operating
   point and small-signal parameters (and the supply current = power).
2. The small-signal values are plugged into the **numerical transfer
   function** (the DPI/SFG symbolic result is equivalent to the linearized
   MNA solve used here) for fast, accurate gain / bandwidth / phase-margin
   evaluation.
3. When the behaviour is large-swing — the MDAC's slew-then-settle output
   step — a **nonlinear transient simulation** of the closed-loop stage
   produces the trustworthy settling-error number.

Step 3 costs ~100x step 2, so the optimizer runs on the equation metrics
and reserves the transient for verification — the hybrid the paper argues
for.  Benchmarks quantify the trade (bench_ablation_evaluator).

The equation half runs on one of two *kernels*:

* ``"compiled"`` (default) — the testbench topology is compiled once into
  a parametric MNA stamp template (:mod:`repro.analysis.template`), the DC
  Newton iterations assemble through vectorized scatters, and the whole AC
  sweep (DC-gain point + loop grid) solves as a single batched
  ``np.linalg.solve`` stack.  Results are bit-identical to the legacy
  path — the template replays the exact legacy stamp order — just ~4-6x
  faster (``benchmarks/bench_evaluator_kernel.py``).
* ``"legacy"`` — the seed's per-element stamp walk and per-frequency AC
  loop, kept as the reference for equivalence tests and benchmarks.

:meth:`HybridEvaluator.evaluate_batch` scores a whole population: DC
solves run candidate-by-candidate (preserving the warm-start chain, hence
bit-identical costs), then every candidate's AC sweep joins one stacked
linear solve.

The DC stage itself has two *kernels* (``dc_kernel``):

* ``"chained"`` (default) — the warm-start chain above: candidates solve
  one at a time, each seeded from the previous operating point.  Fast per
  solve, but strictly serial and order-dependent.
* ``"batched"`` — the whole population iterates as one lockstep Newton
  block (:mod:`repro.analysis.dcbatch`): every candidate starts cold from
  the shared bias guess, converged members freeze bitwise while stragglers
  keep iterating, and one stacked ``np.linalg.solve`` advances the block
  per iteration.  Trajectories are deterministic and order-independent —
  *different* from the chained results (no warm starts), which is why
  ``FlowConfig.dc_kernel`` is part of campaign result identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.ac import (
    ac_system_stack,
    ac_system_tensor,
    ac_transfer,
    solve_ac_stack,
)
from repro.analysis.dc import DcSolution, solve_dc
from repro.analysis.dcbatch import DC_KERNELS, solve_dc_batch
from repro.analysis.smallsignal import LinearizedCircuit, linearize
from repro.analysis.template import BoundMnaStack, TemplateStore, bind_template
from repro.analysis.transient import simulate_transient
from repro.blocks.mdac import SETTLING_STEP_TIME, MdacNetwork, build_settling_bench
from repro.blocks.opamp import TwoStageSizing
from repro.blocks.opamp_library import build_two_stage_miller
from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ConvergenceError, ReproError, SynthesisError
from repro.specs.stage import MdacSpec
from repro.tech.process import Technology

#: Differential-implementation factor on the measured single-ended current.
DIFFERENTIAL_FACTOR = 2.0

#: Hard phase-margin floor [deg].  Switched-capacitor stages only care
#: about the end-of-phase value, which the transient verifies directly, so
#: moderate ringing is acceptable; 50 degrees is the robustness floor while
#: the cost function still rewards designs that reach 60+.
PHASE_MARGIN_MIN = 50.0

#: Saturation margin every signal device must keep [V].
SATURATION_MARGIN = 0.05

#: Devices that must stay saturated in the two-stage opamp.
_SIGNAL_DEVICES = ("m1", "m2", "m3", "m4", "m6", "m7", "mtail")

#: Supported equation-evaluation kernels.
EVAL_KERNELS = ("compiled", "legacy")

#: Frequency used for the DC-gain read-out [Hz].
_DC_GAIN_FREQ = 1e3

#: Loop-gain sweep grid [Hz] (the legacy ``_loop_margin`` grid).
_LOOP_FREQS = np.logspace(3, 11, 241)

#: Merged per-candidate AC grid: DC-gain point followed by the loop grid.
_AC_FREQS = np.concatenate(([_DC_GAIN_FREQ], _LOOP_FREQS))

#: Candidates per fused AC solve chunk.  Each candidate contributes
#: ``len(_AC_FREQS)`` (n, n) complex systems (~1-2 MB); chunking keeps the
#: working set cache-resident instead of materializing one population-sized
#: tensor, while every chunk still goes through a single ``np.linalg.solve``
#: (the gufunc applies LAPACK per slice, so chunk size never changes bits).
_AC_BATCH_CHUNK = 8


class _AcScratch:
    """Grow-once scratch (stack + RHS) for fused batched AC solves."""

    __slots__ = ("stack", "rhs")

    def __init__(self):
        self.stack: np.ndarray | None = None
        self.rhs: np.ndarray | None = None

    def buffers(self, rows: int, size: int) -> tuple[np.ndarray, np.ndarray]:
        if (
            self.stack is None
            or self.stack.shape[0] < rows
            or self.stack.shape[1] != size
        ):
            self.stack = np.empty((rows, size, size), dtype=complex)
            self.rhs = np.empty((rows, size, 1), dtype=complex)
        return self.stack[:rows], self.rhs[:rows]


def _solve_staged_ac(pending: "list[_StagedEvaluation]", scratch: _AcScratch) -> None:
    """Fused AC solve for staged candidates (flattened candidates×corners).

    Fills each entry's ``a_all`` (or marks it failed) exactly like a
    per-candidate :func:`~repro.analysis.ac.solve_ac_stack` walk would: the
    chunked ``np.linalg.solve`` applies LAPACK per (n, n) slice, so chunk
    boundaries and scratch reuse never change a bit of any solution.
    """
    n_freq = len(_AC_FREQS)
    size = pending[0].lin.size
    for start in range(0, len(pending), _AC_BATCH_CHUNK):
        part = pending[start : start + _AC_BATCH_CHUNK]
        rows = len(part) * n_freq
        stack, rhs = scratch.buffers(rows, size)
        ac_system_tensor(
            [s.lin for s in part],
            _AC_FREQS,
            out=stack.reshape(len(part), n_freq, size, size),
        )
        b0 = part[0].lin.b_ac
        if all(np.array_equal(s.lin.b_ac, b0) for s in part[1:]):
            # One excitation for the whole chunk (the sizing loop's case:
            # b_ac depends only on source ac values): broadcast instead of
            # materializing per-candidate copies.  Same values either way.
            rhs = np.broadcast_to(b0, (rows, size))[..., None]
        else:
            for i, s in enumerate(part):
                rhs[i * n_freq : (i + 1) * n_freq, :, 0] = s.lin.b_ac
        try:
            solutions = np.linalg.solve(stack, rhs)[..., 0]
            split = np.split(solutions, len(part))
        except np.linalg.LinAlgError:
            # Some candidate's sweep is singular: resolve per candidate so
            # only that candidate goes infeasible (matching what a
            # sequential evaluate() would do).
            split = []
            for i, s in enumerate(part):
                block = slice(i * n_freq, (i + 1) * n_freq)
                try:
                    split.append(
                        solve_ac_stack(stack[block], s.lin.b_ac, _AC_FREQS)
                    )
                except AnalysisError:
                    split.append(None)
        for s, solution in zip(part, split):
            if solution is None:
                s.failed = True
                continue
            s.a_all = solution[:, s.lin.index("out")].copy()


@dataclass
class EvalResult:
    """Metrics and feasibility of one sizing candidate."""

    #: Candidate sizing object.
    sizing: object
    #: Estimated block power (differential implementation) [W].
    power: float
    #: Open-loop DC gain [V/V].
    dc_gain: float
    #: Loop unity-gain frequency (a*beta crossing) [Hz].
    loop_unity_hz: float | None
    #: Loop phase margin [deg].
    phase_margin: float | None
    #: Worst saturation margin across signal devices [V].
    saturation_margin: float
    #: Relative settling error from transient (None if not simulated).
    settling_error: float | None
    #: Whether the DC solve succeeded.
    dc_ok: bool
    #: Constraint violations by name -> normalized amount (>0 means violated).
    violations: dict[str, float]

    @property
    def feasible(self) -> bool:
        """True when every constraint is met."""
        return self.dc_ok and all(v <= 0.0 for v in self.violations.values())

    def cost(self, power_scale: float = 1e-3) -> float:
        """Scalar objective: normalized power plus constraint penalties.

        The linear penalty term dominates near-feasibility so the optimizer
        cannot trade a few percent of constraint violation for power.
        """
        if not self.dc_ok:
            return 1e6
        linear = sum(max(0.0, v) for v in self.violations.values())
        quadratic = sum(max(0.0, v) ** 2 for v in self.violations.values())
        return self.power / power_scale + 50.0 * linear + 500.0 * quadratic


@dataclass
class _StagedEvaluation:
    """Per-candidate state between the DC stage and the AC read-out."""

    sizing: object
    failed: bool = False
    power: float = float("inf")
    saturation: float = -1.0
    lin: LinearizedCircuit | None = None
    #: Amplifier transfer over :data:`_AC_FREQS` (gain point + loop grid).
    a_all: np.ndarray | None = None


class HybridEvaluator:
    """Evaluates two-stage-Miller sizings against an MDAC specification."""

    def __init__(
        self,
        mdac: MdacSpec,
        tech: Technology,
        common_mode: float | None = None,
        transient_points: int = 500,
        kernel: str = "compiled",
        template_store: TemplateStore | str | None = None,
        dc_kernel: str = "chained",
    ):
        if kernel not in EVAL_KERNELS:
            raise SynthesisError(
                f"unknown evaluation kernel {kernel!r} (known: {EVAL_KERNELS})"
            )
        if dc_kernel not in DC_KERNELS:
            raise SynthesisError(
                f"unknown DC kernel {dc_kernel!r} (known: {DC_KERNELS})"
            )
        if dc_kernel == "batched" and kernel != "compiled":
            raise SynthesisError(
                "dc_kernel='batched' requires the compiled evaluation kernel "
                "(the lockstep solver stacks compiled stamp programs)"
            )
        self.mdac = mdac
        self.tech = tech
        self.network = MdacNetwork.from_spec(mdac)
        self.common_mode = common_mode if common_mode is not None else 0.45 * tech.vdd
        self.transient_points = transient_points
        self.kernel = kernel
        self.dc_kernel = dc_kernel
        #: Optional on-disk store of compiled stamp templates — workers
        #: point this at ``<cache_dir>/templates`` so they load compiled
        #: programs instead of recompiling per job.
        self.template_store = (
            TemplateStore(template_store)
            if isinstance(template_store, (str, bytes)) or hasattr(template_store, "__fspath__")
            else template_store
        )
        self._warm_x: np.ndarray | None = None
        #: Counters for the ablation benchmarks.
        self.equation_evals = 0
        self.transient_evals = 0
        #: Warm-state trace of the last :meth:`evaluate_batch` call — the
        #: ``_warm_x`` snapshot after each candidate, consumed by the
        #: speculative batcher (:mod:`repro.synth.batcheval`) to rewind the
        #: evaluator to any consumed prefix.
        self._batch_warm_trace: list[np.ndarray | None] = []
        #: Scratch buffer for the per-candidate AC system stack.
        self._ac_stack_buf: np.ndarray | None = None
        #: Grow-once scratch for fused batch AC solves (chunked).
        self._batch_scratch = _AcScratch()
        #: Bound stamp template, reused (rebound) across candidates.
        self._bound = None
        #: Grow-once pool of per-candidate bindings for the batched DC
        #: kernel (the lockstep block needs every member bound at once).
        self._bound_pool: "list[object | None]" = []

    def _bind(self, bench: Circuit):
        """Bind (or rebind) the compiled stamp template onto ``bench``.

        The sizing loop produces the same topology every candidate, so one
        :class:`~repro.analysis.template.BoundMna` is reused and only its
        value slots refresh.
        """
        bound = self._bound
        if bound is not None and bound.template.key == bench.topology_key():
            return bound.rebind(bench)
        bound = bind_template(bench, store=self.template_store)
        self._bound = bound
        return bound

    def _bind_pool(self, slot: int, bench: Circuit):
        """Bind ``bench`` onto the pooled per-candidate binding ``slot``.

        The batched DC kernel needs every population member bound
        simultaneously; the pool grows to the largest population seen and
        slots rebind (value refresh only) on subsequent batches.
        """
        pool = self._bound_pool
        while len(pool) <= slot:
            pool.append(None)
        bound = pool[slot]
        if bound is not None and bound.template.key == bench.topology_key():
            return bound.rebind(bench)
        bound = bind_template(bench, store=self.template_store)
        pool[slot] = bound
        return bound

    def _ac_scratch(self, size: int) -> np.ndarray:
        """Reusable (n_freq, size, size) complex buffer for the AC stack."""
        if self._ac_stack_buf is None or self._ac_stack_buf.shape[1] != size:
            self._ac_stack_buf = np.empty(
                (len(_AC_FREQS), size, size), dtype=complex
            )
        return self._ac_stack_buf

    # -- testbench -----------------------------------------------------------

    def _ac_bench(self, sizing: TwoStageSizing) -> Circuit:
        """Opamp + supplies + high-impedance unity feedback + effective load."""
        amp = build_two_stage_miller(self.tech, sizing)
        bench = Circuit(f"acbench_{amp.name}")
        for element in amp:
            bench.add(element)
        b = CircuitBuilder("tb", tech=self.tech)
        b.v("vdd", "gnd", dc=self.tech.vdd, name="vdd_src")
        b.v("inp", "gnd", dc=self.common_mode, ac=1.0, name="vin_src")
        # DC feedback path for biasing; invisible above ~1 kHz.
        b.r("out", "inm", 1e9, name="rfb")
        b.c("inm", "gnd", 1e-6, name="cfb")
        b.c("out", "gnd", self.network.c_eff, name="cload")
        for element in b.circuit:
            bench.add(element)
        return bench

    # -- evaluation ----------------------------------------------------------

    def evaluate(
        self, sizing: TwoStageSizing, run_transient: bool = False
    ) -> EvalResult:
        """Hybrid evaluation; set ``run_transient`` for the simulation half."""
        if self.dc_kernel == "batched":
            # Single-candidate case of the lockstep path: cold starts make
            # a population of one identical to the member's batch result.
            return self.evaluate_batch([sizing], run_transient)[0]
        staged = self._stage_equation(sizing)
        if staged.failed:
            return self._infeasible(sizing)
        try:
            if self.kernel == "compiled":
                # One stacked solve covers the DC-gain point and loop grid;
                # the system stack reuses a per-evaluator scratch buffer.
                lin = staged.lin
                stack = ac_system_stack(
                    lin, _AC_FREQS, out=self._ac_scratch(lin.size)
                )
                solution = solve_ac_stack(stack, lin.b_ac, _AC_FREQS)
                staged.a_all = solution[:, lin.index("out")]
            else:
                # The seed's two separate per-frequency sweeps.
                gain_point = ac_transfer(
                    staged.lin, "out", np.array([_DC_GAIN_FREQ]), batched=False
                )
                loop = ac_transfer(staged.lin, "out", _LOOP_FREQS, batched=False)
                staged.a_all = np.concatenate((gain_point, loop))
        except (AnalysisError, ReproError):
            return self._infeasible(sizing)
        return self._finish(staged, run_transient)

    def evaluate_batch(
        self, sizings: list[TwoStageSizing], run_transient: bool = False
    ) -> list[EvalResult]:
        """Score a population; bit-identical to sequential :meth:`evaluate`.

        DC solves run candidate-by-candidate in list order (the warm-start
        chain is order-dependent, and keeping the serial order is what makes
        the costs bit-identical), then the compiled kernel fuses every
        surviving candidate's AC sweep into one stacked linear solve.  On
        the legacy kernel this falls back to a plain sequential loop.
        """
        if self.kernel != "compiled":
            results = []
            self._batch_warm_trace = []
            for sizing in sizings:
                results.append(self.evaluate(sizing, run_transient))
                self._batch_warm_trace.append(
                    None if self._warm_x is None else self._warm_x.copy()
                )
            return results

        if self.dc_kernel == "batched":
            staged = self._stage_batched(sizings)
            # Cold starts leave no warm chain to rewind: speculative
            # replays (synth/batcheval.py) are trivially exact.
            self._batch_warm_trace = [None] * len(sizings)
            pending = [s for s in staged if s.lin is not None]
            if pending:
                _solve_staged_ac(pending, self._batch_scratch)
            return [
                self._infeasible(s.sizing)
                if s.failed
                else self._finish(s, run_transient)
                for s in staged
            ]

        staged: list[_StagedEvaluation] = []
        self._batch_warm_trace = []
        for sizing in sizings:
            staged.append(self._stage_equation(sizing))
            self._batch_warm_trace.append(
                None if self._warm_x is None else self._warm_x.copy()
            )

        pending = [s for s in staged if s.lin is not None]
        if pending:
            _solve_staged_ac(pending, self._batch_scratch)

        return [
            self._infeasible(s.sizing) if s.failed else self._finish(s, run_transient)
            for s in staged
        ]

    def _stage_batched(
        self, sizings: "list[TwoStageSizing]"
    ) -> "list[_StagedEvaluation]":
        """Cold-start lockstep DC staging for the batched kernel.

        Every candidate binds its own pooled template slot, one population
        solve (:func:`repro.analysis.dcbatch.solve_dc_batch`) replaces the
        chained walk, and per-member failures degrade that member alone.
        Like the chained path's cold restart, a candidate whose cold-start
        solution is degenerate is infeasible — there is no further guess to
        fall back to.
        """
        staged: "list[_StagedEvaluation]" = []
        bounds = []
        for i, sizing in enumerate(sizings):
            self.equation_evals += 1
            staged.append(_StagedEvaluation(sizing=sizing))
            bench = self._ac_bench(sizing)
            bounds.append(self._bind_pool(i, bench))
        batch = solve_dc_batch(bounds, initial_guess=self._dc_guess())
        for st, bound, op in zip(staged, bounds, batch.solutions):
            if op is None or self._degenerate(op):
                st.failed = True
                continue
            st.power = (
                self.tech.vdd
                * abs(op.supply_current("vdd_src"))
                * DIFFERENTIAL_FACTOR
            )
            st.saturation = self._saturation_margin(op)
            try:
                st.lin = bound.linearize(op)
            except (AnalysisError, ReproError):
                st.failed = True
        return staged

    def _stage_equation(self, sizing: TwoStageSizing) -> "_StagedEvaluation":
        """DC solve + linearization — the sequential half of an evaluation."""
        staged, bench, bound, op = self._stage_dc(sizing)
        if staged.failed:
            return staged
        try:
            if bound is not None:
                staged.lin = bound.linearize(op)
            else:
                staged.lin = linearize(bench, op, include_noise=False)
        except (AnalysisError, ReproError):
            staged.failed = True
        return staged

    def _stage_dc(self, sizing: TwoStageSizing):
        """The order-dependent half: bench build, DC solve, power read-out.

        Returns ``(staged, bench, bound, op)`` so corner-set evaluation can
        interleave per-corner DC chains and defer linearization to the
        corner-stacked template binding.
        """
        self.equation_evals += 1
        staged = _StagedEvaluation(sizing=sizing)
        bench = self._ac_bench(sizing)
        bound = self._bind(bench) if self.kernel == "compiled" else None
        try:
            op = self._solve_dc(bench, assembly=bound)
        except (ConvergenceError, ReproError):
            staged.failed = True
            return staged, bench, bound, None
        staged.power = (
            self.tech.vdd
            * abs(op.supply_current("vdd_src"))
            * DIFFERENTIAL_FACTOR
        )
        staged.saturation = self._saturation_margin(op)
        return staged, bench, bound, op

    def _finish(
        self, staged: "_StagedEvaluation", run_transient: bool
    ) -> EvalResult:
        """Metrics + violations from a staged evaluation's AC sweep."""
        a_all = staged.a_all
        dc_gain = abs(float(np.real(a_all[0])))
        loop_unity, pm = self._loop_margin_values(a_all[1:])
        settling = None
        if run_transient:
            settling = self._transient_settling(staged.sizing)
        violations = self._violations(
            dc_gain, loop_unity, pm, staged.saturation, settling
        )
        return EvalResult(
            sizing=staged.sizing,
            power=staged.power,
            dc_gain=dc_gain,
            loop_unity_hz=loop_unity,
            phase_margin=pm,
            saturation_margin=staged.saturation,
            settling_error=settling,
            dc_ok=True,
            violations=violations,
        )

    def _dc_guess(self) -> dict[str, float]:
        vdd, cm = self.tech.vdd, self.common_mode
        return {
            "vdd": vdd,
            "inp": cm,
            "inm": cm,
            "out": cm,
            "nz": cm,
            "o1": vdd - 0.9,  # PMOS second-stage gate bias point
            "x": vdd - 0.9,
            "nbias": 0.8,
            "tail": 0.5,
        }

    def _degenerate(self, op: DcSolution) -> bool:
        """Detect the parasitic rail-stuck solution of the feedback bench."""
        vout = op.voltages.get("out", 0.0)
        if not 0.15 * self.tech.vdd < vout < 0.85 * self.tech.vdd:
            return True
        m2 = op.device_ops.get("m2")
        return m2 is not None and m2.region == "cutoff"

    def _solve_dc(self, bench: Circuit, assembly=None) -> DcSolution:
        if self._warm_x is not None:
            try:
                op = solve_dc(bench, x0=self._warm_x, assembly=assembly)
                if not self._degenerate(op):
                    self._warm_x = op.x
                    return op
            except (ConvergenceError, ReproError):
                pass
        op = solve_dc(bench, initial_guess=self._dc_guess(), assembly=assembly)
        if self._degenerate(op):
            raise ConvergenceError("amplifier stuck in a degenerate operating point")
        self._warm_x = op.x
        return op

    def _saturation_margin(self, op: DcSolution) -> float:
        margins = []
        for name in _SIGNAL_DEVICES:
            if name not in op.device_ops:
                continue
            device = op.device_ops[name]
            margins.append(abs(device.vds) - device.vdsat)
        return min(margins) if margins else -1.0

    def _loop_margin_values(
        self, a: np.ndarray
    ) -> tuple[float | None, float | None]:
        """Unity crossing and phase margin of the loop gain a(s)*beta.

        ``a`` is the amplifier transfer over :data:`_LOOP_FREQS`; a(s) is
        measured from the non-inverting input (phase 0 at DC); the phase is
        unwrapped along the sweep so margins past -180 degrees report as
        negative instead of aliasing.
        """
        beta = self.network.beta
        freqs = _LOOP_FREQS
        loop_mag = np.abs(a) * beta
        phase = np.degrees(np.unwrap(np.angle(a)))
        # Last downward unity crossing (vectorized form of the legacy scan).
        down = np.nonzero((loop_mag[:-1] >= 1.0) & (loop_mag[1:] < 1.0))[0]
        if len(down) == 0:
            return None, None
        crossing = int(down[-1])
        # Log-interpolate the crossing frequency and phase.
        m1, m2 = loop_mag[crossing], loop_mag[crossing + 1]
        t = math.log(m1) / (math.log(m1) - math.log(m2))
        fx = freqs[crossing] ** (1 - t) * freqs[crossing + 1] ** t
        ph = phase[crossing] * (1 - t) + phase[crossing + 1] * t
        return fx, 180.0 + ph

    def _transient_settling(self, sizing: TwoStageSizing) -> float | None:
        """Nonlinear closed-loop settling error (the simulation half)."""
        self.transient_evals += 1
        amp = build_two_stage_miller(self.tech, sizing)
        # Per-side worst step of the differential implementation: each side
        # carries half the differential residue range.
        output_step = self.mdac.output_swing / 4.0
        step = -output_step / (self.network.cs / self.network.cf)
        bench, ideal = build_settling_bench(
            amp,
            self.network,
            self.tech,
            step_voltage=step,
            common_mode=self.common_mode,
            step_time=SETTLING_STEP_TIME,
        )
        t_settle = self.mdac.linear_settling_time + self.mdac.slew_time
        t_stop = SETTLING_STEP_TIME + t_settle
        dt = t_settle / self.transient_points
        try:
            result = simulate_transient(bench, t_stop=t_stop, dt=dt, record=["out"])
        except (ConvergenceError, AnalysisError):
            return 1.0
        v = result.voltage("out")
        start = float(v[np.searchsorted(result.time, SETTLING_STEP_TIME) - 1])
        final = float(v[-1])
        if ideal == 0:
            return 1.0
        return abs((final - start) - ideal) / abs(ideal)

    def _violations(
        self,
        dc_gain: float,
        loop_unity: float | None,
        pm: float | None,
        saturation: float,
        settling: float | None,
    ) -> dict[str, float]:
        v: dict[str, float] = {}
        v["dc_gain"] = (self.mdac.dc_gain_min - dc_gain) / self.mdac.dc_gain_min
        required_bw = self.mdac.closed_loop_bw_hz
        if loop_unity is None:
            v["bandwidth"] = 1.0
        else:
            v["bandwidth"] = (required_bw - loop_unity) / required_bw
        if pm is None:
            v["phase_margin"] = 1.0
        else:
            v["phase_margin"] = (PHASE_MARGIN_MIN - pm) / PHASE_MARGIN_MIN
        v["saturation"] = (SATURATION_MARGIN - saturation) / self.tech.vdd * 10.0
        if settling is not None:
            v["settling"] = (settling - self.mdac.settling_error) / self.mdac.settling_error / 10.0
            # The nonlinear transient *is* the settling requirement; when it
            # holds, the conservative linear bandwidth proxy is informative
            # only (the hybrid-evaluation principle of Section 3).
            if settling <= self.mdac.settling_error:
                v["bandwidth"] = min(v["bandwidth"], 0.0)
        return v

    def _infeasible(self, sizing: TwoStageSizing) -> EvalResult:
        return EvalResult(
            sizing=sizing,
            power=float("inf"),
            dc_gain=0.0,
            loop_unity_hz=None,
            phase_margin=None,
            saturation_margin=-1.0,
            settling_error=None,
            dc_ok=False,
            violations={"dc": 1.0},
        )


class CornerSetEvaluator:
    """Candidates×corners evaluation through one fused tensor solve.

    Multi-corner figure-of-merit computation (Barrandon et al.) evaluates
    the same candidates under every process corner.  Corners share the
    testbench topology, so this holds one :class:`HybridEvaluator` per
    corner (each with its own order-dependent DC warm-start chain), runs
    the per-corner DC solves serially, linearizes all corners at once
    through a corner-stacked template binding
    (:class:`~repro.analysis.template.BoundMnaStack`), and fuses every
    candidate's and corner's AC sweep into a single candidates×corners×freq
    ``np.linalg.solve`` tensor.

    **Bit-identity:** ``evaluate_batch(sizings)[c]`` equals
    ``self.corners[c].evaluate_batch(sizings)`` run standalone, result for
    result — each corner's DC chain sees the same candidate sequence, the
    stacked linearization replays each corner's scatter program unchanged,
    and the tensor solve applies LAPACK per (n, n) slice.
    ``tests/synth/test_corner_batch.py`` locks this down.
    """

    def __init__(
        self,
        mdac: MdacSpec,
        techs: "list[Technology]",
        common_mode: float | None = None,
        transient_points: int = 500,
        kernel: str = "compiled",
        template_store: TemplateStore | str | None = None,
        dc_kernel: str = "chained",
    ):
        if not techs:
            raise SynthesisError("CornerSetEvaluator needs at least one corner")
        self.corners = [
            HybridEvaluator(
                mdac,
                tech,
                common_mode=common_mode,
                transient_points=transient_points,
                kernel=kernel,
                template_store=template_store,
                dc_kernel=dc_kernel,
            )
            for tech in techs
        ]
        self.kernel = kernel
        self.dc_kernel = dc_kernel
        self._stack: BoundMnaStack | None = None
        self._tensor_scratch = _AcScratch()

    @property
    def equation_evals(self) -> int:
        """Total equation evaluations across all corners."""
        return sum(ev.equation_evals for ev in self.corners)

    def _corner_stack(self) -> BoundMnaStack | None:
        """The corner-stacked binding over the corners' current bounds."""
        bounds = [ev._bound for ev in self.corners]
        if any(b is None for b in bounds):
            return None
        key = bounds[0].template.key
        if any(b.template.key != key for b in bounds[1:]):
            return None
        stack = self._stack
        if stack is None or len(stack.corners) != len(bounds) or any(
            sb is not b for sb, b in zip(stack.corners, bounds)
        ):
            stack = BoundMnaStack.from_bounds(bounds)
            self._stack = stack
        return stack

    def evaluate_batch(
        self, sizings: "list[TwoStageSizing]", run_transient: bool = False
    ) -> "list[list[EvalResult]]":
        """Score ``sizings`` under every corner; returns ``[corner][candidate]``.

        The legacy kernel has no batched form — it falls back to per-corner
        sequential evaluation (the baseline the benchmarks measure the
        tensor path against).
        """
        if self.kernel != "compiled":
            return [ev.evaluate_batch(sizings, run_transient) for ev in self.corners]
        if self.dc_kernel == "batched":
            return self._evaluate_batch_lockstep(sizings, run_transient)

        n_corners = len(self.corners)
        staged: list[list[_StagedEvaluation]] = [[] for _ in range(n_corners)]
        pending: list[_StagedEvaluation] = []
        for sizing in sizings:
            # Candidate-major staging: every corner's DC chain still sees
            # the candidates in list order, identical to its solo run.
            rows = [ev._stage_dc(sizing) for ev in self.corners]
            stack = None
            if all(op is not None for (_, _, _, op) in rows):
                stack = self._corner_stack()
            if stack is not None:
                # One corner-dimension slot refresh + stacked linearize.
                try:
                    lins = stack.refresh().linearize(
                        [op for (_, _, _, op) in rows]
                    )
                except (AnalysisError, ReproError):
                    lins = None
                    for st, _, _, _ in rows:
                        st.failed = True
                if lins is not None:
                    for (st, _, _, _), lin in zip(rows, lins):
                        st.lin = lin
            else:
                for st, bench, bound, op in rows:
                    if op is None:
                        continue
                    try:
                        if bound is not None:
                            st.lin = bound.linearize(op)
                        else:
                            st.lin = linearize(bench, op, include_noise=False)
                    except (AnalysisError, ReproError):
                        st.failed = True
            for c, (st, _, _, _) in enumerate(rows):
                staged[c].append(st)
                if st.lin is not None:
                    pending.append(st)

        if pending:
            # The candidates×corners×freq tensor: one chunked fused solve.
            _solve_staged_ac(pending, self._tensor_scratch)

        return [
            [
                ev._infeasible(st.sizing)
                if st.failed or st.a_all is None
                else ev._finish(st, run_transient)
                for st in staged[c]
            ]
            for c, ev in enumerate(self.corners)
        ]

    def _evaluate_batch_lockstep(
        self, sizings: "list[TwoStageSizing]", run_transient: bool
    ) -> "list[list[EvalResult]]":
        """The candidates×corners block as one lockstep DC solve.

        Every (candidate, corner) member joins a single
        :func:`~repro.analysis.dcbatch.solve_dc_batch` population — corners
        share the testbench topology, so the whole block iterates as one
        masked Newton stack — and the surviving members' AC sweeps fuse
        into the usual candidates×corners×freq tensor solve.  Each member
        cold-starts from *its corner's* bias guess (supplies and common
        modes differ per corner), so results are order-independent across
        both axes.
        """
        staged: "list[list[_StagedEvaluation]]" = [[] for _ in self.corners]
        bounds = []
        guesses = []
        entries: "list[tuple[int, _StagedEvaluation]]" = []
        for i, sizing in enumerate(sizings):
            for c, ev in enumerate(self.corners):
                ev.equation_evals += 1
                st = _StagedEvaluation(sizing=sizing)
                staged[c].append(st)
                bench = ev._ac_bench(sizing)
                bounds.append(ev._bind_pool(i, bench))
                guesses.append(ev._dc_guess())
                entries.append((c, st))
        batch = solve_dc_batch(bounds, initial_guess=guesses)
        pending: "list[_StagedEvaluation]" = []
        for (c, st), bound, op in zip(entries, bounds, batch.solutions):
            ev = self.corners[c]
            if op is None or ev._degenerate(op):
                st.failed = True
                continue
            st.power = (
                ev.tech.vdd
                * abs(op.supply_current("vdd_src"))
                * DIFFERENTIAL_FACTOR
            )
            st.saturation = ev._saturation_margin(op)
            try:
                st.lin = bound.linearize(op)
            except (AnalysisError, ReproError):
                st.failed = True
                continue
            pending.append(st)
        if pending:
            _solve_staged_ac(pending, self._tensor_scratch)
        return [
            [
                ev._infeasible(st.sizing)
                if st.failed or st.a_all is None
                else ev._finish(st, run_transient)
                for st in staged[c]
            ]
            for c, ev in enumerate(self.corners)
        ]
