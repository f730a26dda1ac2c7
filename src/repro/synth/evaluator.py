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

The equation half runs on compiled kernels: the testbench topology is
compiled once into a parametric MNA stamp template
(:mod:`repro.analysis.template`), the DC Newton iterations assemble through
vectorized scatters, and the AC read-out solves as two stacked
``np.linalg.solve`` calls, the 1 kHz DC-gain point and then the 241-point
loop grid.  Results are bit-identical to the per-element stamp walk and
per-frequency AC loop they replaced, which
``tests/synth/evaluator_reference.py`` keeps as the oracle.

Between the two AC solves the power, the saturation margin and the DC gain
already give a lower bound on the cost.  A search that passes ``reject``
(see :meth:`HybridEvaluator.evaluate`) learns that bound first, and a
candidate it would turn down anyway skips the loop sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.ac import ac_system_stack, solve_ac_stack
from repro.analysis.dc import DcSolution, solve_dc
from repro.analysis.smallsignal import LinearizedCircuit
from repro.analysis.template import bind_template
from repro.analysis.transient import simulate_transient
from repro.blocks.mdac import SETTLING_STEP_TIME, MdacNetwork, build_settling_bench
from repro.blocks.opamp import TwoStageSizing
from repro.blocks.opamp_library import build_two_stage_miller
from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ConvergenceError, ReproError
from repro.specs.stage import MdacSpec
from repro.synth.anneal import Reject
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

#: Frequency used for the DC-gain read-out [Hz].
_DC_GAIN_FREQ = 1e3

#: The DC-gain read-out as a one-point sweep.
_GAIN_FREQS = np.array([_DC_GAIN_FREQ])

#: Loop-gain sweep grid [Hz] (the legacy ``_loop_margin`` grid).
_LOOP_FREQS = np.logspace(3, 11, 241)

#: Cost of a candidate whose DC solve, linearization or AC solve failed.
FAILED_COST = 1e6

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
            return FAILED_COST
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


class HybridEvaluator:
    """Evaluates two-stage-Miller sizings against an MDAC specification."""

    def __init__(
        self,
        mdac: MdacSpec,
        tech: Technology,
        common_mode: float | None = None,
        transient_points: int = 500,
    ):
        self.mdac = mdac
        self.tech = tech
        self.network = MdacNetwork.from_spec(mdac)
        self.common_mode = common_mode if common_mode is not None else 0.45 * tech.vdd
        self.transient_points = transient_points
        self._warm_x: np.ndarray | None = None
        #: Counters for the ablation benchmarks and the metrics registry.
        self.equation_evals = 0
        self.transient_evals = 0
        #: Evaluations a ``reject`` callback cut short before the loop sweep.
        self.rejected_evals = 0
        #: Scratch buffer for the per-candidate AC system stack.
        self._ac_stack_buf: np.ndarray | None = None
        #: Bound stamp template, reused (rebound) across candidates.
        self._bound = None

    def _bind(self, bench: Circuit):
        """Bind (or rebind) the compiled stamp template onto ``bench``.

        The sizing loop produces the same topology every candidate, so one
        :class:`~repro.analysis.template.BoundMna` is reused and only its
        value slots refresh.
        """
        bound = self._bound
        if bound is not None and bound.template.key == bench.topology_key():
            return bound.rebind(bench)
        bound = bind_template(bench)
        self._bound = bound
        return bound

    def _transfer(self, lin: LinearizedCircuit, freqs: np.ndarray) -> np.ndarray:
        """Amplifier transfer to ``out`` over ``freqs``: one stacked solve.

        The system stack fills a per-evaluator scratch buffer sized for the
        loop grid; the one-point gain read-out uses its first slice.
        """
        buf = self._ac_stack_buf
        if buf is None or buf.shape[1] != lin.size:
            buf = np.empty((len(_LOOP_FREQS), lin.size, lin.size), dtype=complex)
            self._ac_stack_buf = buf
        stack = ac_system_stack(lin, freqs, out=buf[: len(freqs)])
        return solve_ac_stack(stack, lin.b_ac, freqs)[:, lin.index("out")]

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
        self,
        sizing: TwoStageSizing,
        run_transient: bool = False,
        reject: Reject | None = None,
    ) -> EvalResult:
        """Hybrid evaluation; set ``run_transient`` for the simulation half.

        ``reject(bound)`` is asked once, after the DC-gain point and before
        the loop sweep, whether any cost ``>= bound`` would be turned down.
        ``bound`` is the cost of the power, the DC-gain and the saturation
        violations alone, capped at :data:`FAILED_COST`, so it is never
        above the full :meth:`EvalResult.cost` (at its default power
        scale): every omitted term is ``>= 0``, IEEE rounding is monotone,
        and a failed loop sweep costs :data:`FAILED_COST`.  A NaN bound
        never rejects.  On ``True`` the loop sweep, the loop margins and
        the transient are skipped: the result carries the power, the
        saturation margin and the DC gain, and an infinite ``rejected``
        violation, so ``cost() == inf`` and it is not feasible.  A
        candidate whose DC or gain point fails never asks.
        """
        staged = self._stage_equation(sizing)
        if staged.failed:
            return self._infeasible(sizing)
        try:
            gain_point = self._transfer(staged.lin, _GAIN_FREQS)
        except (AnalysisError, ReproError):
            return self._infeasible(sizing)
        early = self._early_result(staged, abs(float(np.real(gain_point[0]))))
        # min() keeps a NaN cost as the bound (1e6 < nan is False).
        if reject is not None and reject(min(early.cost(), FAILED_COST)):
            self.rejected_evals += 1
            early.violations["rejected"] = math.inf
            return early
        try:
            loop = self._transfer(staged.lin, _LOOP_FREQS)
        except (AnalysisError, ReproError):
            return self._infeasible(sizing)
        return self._finish(early, loop, run_transient)

    def evaluate_batch(
        self, sizings: list[TwoStageSizing], run_transient: bool = False
    ) -> list[EvalResult]:
        """Score a population in list order: :meth:`evaluate` per sizing."""
        # No caller left in the package; kept because e2ebench/layers.py wraps it by name.
        return [self.evaluate(sizing, run_transient) for sizing in sizings]

    def _stage_equation(self, sizing: TwoStageSizing) -> "_StagedEvaluation":
        """The order-dependent half: bench build, DC solve, linearization."""
        self.equation_evals += 1
        staged = _StagedEvaluation(sizing=sizing)
        bench = self._ac_bench(sizing)
        bound = self._bind(bench)
        try:
            op = self._solve_dc(bench, assembly=bound)
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
            staged.lin = bound.linearize(op)
        except (AnalysisError, ReproError):
            staged.failed = True
        return staged

    def _early_result(
        self, staged: "_StagedEvaluation", dc_gain: float
    ) -> EvalResult:
        """What the DC stage and the gain point decide: the bound's result."""
        violations = {
            "dc_gain": (self.mdac.dc_gain_min - dc_gain) / self.mdac.dc_gain_min,
            "saturation": (SATURATION_MARGIN - staged.saturation)
            / self.tech.vdd
            * 10.0,
        }
        return EvalResult(
            sizing=staged.sizing,
            power=staged.power,
            dc_gain=dc_gain,
            loop_unity_hz=None,
            phase_margin=None,
            saturation_margin=staged.saturation,
            settling_error=None,
            dc_ok=True,
            violations=violations,
        )

    def _finish(
        self, early: EvalResult, loop: np.ndarray, run_transient: bool
    ) -> EvalResult:
        """Loop margins, transient and full violations after the loop sweep."""
        loop_unity, pm = self._loop_margin_values(loop)
        settling = None
        if run_transient:
            settling = self._transient_settling(early.sizing)
        violations = self._violations(early.violations, loop_unity, pm, settling)
        return EvalResult(
            sizing=early.sizing,
            power=early.power,
            dc_gain=early.dc_gain,
            loop_unity_hz=loop_unity,
            phase_margin=pm,
            saturation_margin=early.saturation_margin,
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
        early: dict[str, float],
        loop_unity: float | None,
        pm: float | None,
        settling: float | None,
    ) -> dict[str, float]:
        """All violations, in the order :meth:`EvalResult.cost` sums them.

        ``early`` holds the DC-gain and saturation violations of
        :meth:`_early_result`; the loop and settling entries go around them.
        """
        v: dict[str, float] = {"dc_gain": early["dc_gain"]}
        required_bw = self.mdac.closed_loop_bw_hz
        if loop_unity is None:
            v["bandwidth"] = 1.0
        else:
            v["bandwidth"] = (required_bw - loop_unity) / required_bw
        if pm is None:
            v["phase_margin"] = 1.0
        else:
            v["phase_margin"] = (PHASE_MARGIN_MIN - pm) / PHASE_MARGIN_MIN
        v["saturation"] = early["saturation"]
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

