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
for.  That works only if the equations carry the constraint the transient
checks: the search aims at a loop bandwidth of ``closed_loop_bw_hz`` and a
phase margin of :data:`PHASE_MARGIN_TARGET`, a single-pole settling
predictor, while feasibility keeps the :data:`PHASE_MARGIN_MIN` robustness
floor and the transient's verdict.  Benchmarks quantify the trade
(bench_ablation_evaluator).

The equation half runs on compiled kernels: the testbench topology is
compiled once into a parametric MNA stamp template
(:mod:`repro.analysis.template`) and bound once per evaluator, and each
candidate writes only the values its sizing sets
(:func:`~repro.blocks.opamp_library.two_stage_miller_values`) into the
bound program, with no netlist of its own.  The DC Newton iterations
assemble through vectorized scatters.  After the DC solve the candidate
is read from plain arrays: the power from the solution vector, the
saturation margin and the degenerate check from the device arrays of the
Newton loop's last evaluation, and G and C from the same arrays, scattered
and sliced to the bench's free node voltages in one step
(:class:`~repro.analysis.ac.FreeNodes`: the supply and input sources fix
``vdd`` and ``inp``).  The AC read-outs solve that system as stacked
``np.linalg.solve`` calls: the 1 kHz DC-gain point, the top of the loop
grid, then its bottom.  Results are bit-identical to the per-element
stamp walk and a per-frequency loop over the same free-node system,
which ``tests/synth/evaluator_reference.py`` keeps as the oracle; they
agree with the whole MNA system's loop to about 1e-13 relative.

Each stage tightens a lower bound on the cost: the power and the
saturation margin after the DC solve, the DC gain after the gain point,
the bandwidth after the top of the loop grid.  A search that passes
``reject`` (see :meth:`HybridEvaluator.evaluate`) learns each bound as it
is known, and a candidate it would turn down anyway skips the rest of its
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.ac import (
    FreeNodes,
    FreeNodeSystem,
    ac_system_stack,
    solve_ac_stack,
)
from repro.analysis.dc import DcSolution, solve_dc
from repro.analysis.template import BoundMna, ValueWriter, bind_template
from repro.analysis.transient import simulate_transient
from repro.blocks.mdac import SETTLING_STEP_TIME, MdacNetwork, build_settling_bench
from repro.blocks.opamp import TwoStageSizing
from repro.blocks.opamp_library import build_two_stage_miller, two_stage_miller_values
from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ConvergenceError, ReproError
from repro.specs.stage import MdacProblem
from repro.synth.anneal import Reject
from repro.tech.process import Technology

#: Differential-implementation factor on the measured single-ended current.
DIFFERENTIAL_FACTOR = 2.0

#: Hard phase-margin floor [deg].  Switched-capacitor stages only care
#: about the end-of-phase value, which the transient verifies directly, so
#: moderate ringing is acceptable; 50 degrees is the robustness floor a
#: feasible design must keep.
PHASE_MARGIN_MIN = 50.0

#: The phase margin a search aims for [deg]: with the loop bandwidth at
#: least ``closed_loop_bw_hz``, the equation side's settling predictor.
#: Searches end on both boundaries.  Aiming at the 50-degree floor, the
#: first transient of a cold Fig. 2 campaign met the settling error in 5
#: of 24 searches; aiming at 60 degrees, in 17 of 22.  Over synthesis
#: seeds 1-4, 62 and 65 degrees won fewer of the paper's K = 10..12
#: topologies.  :meth:`EvalResult.cost` counts the shortfall below this
#: target, feasibility does not: the settling transient is the judge
#: (docs/performance.md, Round nineteen).
PHASE_MARGIN_TARGET = 60.0

#: Saturation margin every signal device must keep [V].
SATURATION_MARGIN = 0.05

#: Devices that must stay saturated in the two-stage opamp.
_SIGNAL_DEVICES = ("m1", "m2", "m3", "m4", "m6", "m7", "mtail")

#: Frequency used for the DC-gain read-out [Hz].
_DC_GAIN_FREQ = 1e3

#: The DC-gain read-out as a one-point sweep, and as ``(freqs, s)`` with
#: its ``s = 2j*pi*f``.
_GAIN_FREQS = np.array([_DC_GAIN_FREQ])
_GAIN = (_GAIN_FREQS, 2j * math.pi * _GAIN_FREQS)

#: Loop-gain sweep grid [Hz] (the legacy ``_loop_margin`` grid).
_LOOP_FREQS = np.logspace(3, 11, 241)

# The gain point is the grid's first point, so the read-out
# [gain point | bottom | top] is the whole grid.
assert _LOOP_FREQS[0] == _DC_GAIN_FREQ

#: The top of the loop grid starts at the first point at or above the
#: required closed-loop bandwidth divided by this.
_TOP_DIVISOR = 2.0

#: Relative slack on the grid point that bounds a crossing below the top:
#: it covers the rounding of the log-interpolated crossing frequency.
_CROSSING_SLACK = 1.0 + 1e-9

#: Cost of a candidate whose DC solve, linearization or AC solve failed.
FAILED_COST = 1e6

#: The stages after which a search's ``reject`` callback is asked.
REJECT_STAGES = ("dc", "gain", "bandwidth")


def _split_index(required_hz: float) -> int:
    """First loop-grid index at or above ``required_hz / _TOP_DIVISOR``.

    Clamped to [1, 240], so the bottom never holds the gain point and the
    top is never empty.
    """
    k0 = int(np.searchsorted(_LOOP_FREQS, required_hz / _TOP_DIVISOR))
    return min(max(k0, 1), len(_LOOP_FREQS) - 1)


def _split(required_hz: float) -> tuple[int, tuple, tuple]:
    """The loop grid's split for ``required_hz``: ``(k0, top, bottom)``.

    ``k0`` is :func:`_split_index`, and the top and bottom are each
    ``(freqs, s)``, with ``s = 2j*pi*freqs`` computed once for both the
    stack and the right-hand sides of every read-out until the next split.
    """
    k0 = _split_index(required_hz)
    top, bottom = _LOOP_FREQS[k0:], _LOOP_FREQS[1:k0]
    return k0, (top, 2j * math.pi * top), (bottom, 2j * math.pi * bottom)


def _unity_crossing(
    freqs: np.ndarray, loop_mag: np.ndarray
) -> tuple[int, float, float] | None:
    """The last downward unity crossing of ``loop_mag`` over ``freqs``.

    Returns ``(k, t, fx)``: the crossing lies between points ``k`` and
    ``k + 1`` (``loop_mag[k] >= 1 > loop_mag[k + 1]``), ``t`` is its
    log-interpolated position between them and ``fx`` its frequency.
    None when there is none; a NaN entry is never part of a crossing.
    """
    down = np.nonzero((loop_mag[:-1] >= 1.0) & (loop_mag[1:] < 1.0))[0]
    if len(down) == 0:
        return None
    k = int(down[-1])
    m1, m2 = loop_mag[k], loop_mag[k + 1]
    t = math.log(m1) / (math.log(m1) - math.log(m2))
    return k, t, freqs[k] ** (1 - t) * freqs[k + 1] ** t


def _top_bandwidth_violation(
    required_hz: float, top_freqs: np.ndarray, top_mag: np.ndarray
) -> float:
    """A lower bound on the bandwidth violation, from the top of the grid.

    A crossing in the top is the whole grid's last one, so the term is
    exact.  Otherwise any crossing lies at or below the top's first point
    (the boundary pair included), and no crossing at all costs 1.0, so
    that point, with :data:`_CROSSING_SLACK`, bounds the crossing.
    """
    crossing = _unity_crossing(top_freqs, top_mag)
    unity = top_freqs[0] * _CROSSING_SLACK if crossing is None else crossing[2]
    return float((required_hz - unity) / required_hz)


@dataclass
class EvalResult:
    """Metrics and feasibility of one sizing candidate."""

    #: Candidate sizing object.
    sizing: object
    #: Estimated block power (differential implementation) [W].
    power: float
    #: Open-loop DC gain [V/V]; NaN when rejected before the gain point.
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
        cannot trade a few percent of constraint violation for power.  A
        phase margin short of :data:`PHASE_MARGIN_TARGET` is penalized the
        same way, so the search aims at the target, though feasibility
        only asks for :data:`PHASE_MARGIN_MIN`.
        """
        if not self.dc_ok:
            return FAILED_COST
        linear = sum(max(0.0, v) for v in self.violations.values())
        quadratic = sum(max(0.0, v) ** 2 for v in self.violations.values())
        if self.phase_margin is not None:
            short = max(0.0, (PHASE_MARGIN_TARGET - self.phase_margin) / PHASE_MARGIN_TARGET)
            linear += short
            quadratic += short**2
        return self.power / power_scale + 50.0 * linear + 500.0 * quadratic


@dataclass
class _StagedEvaluation:
    """One candidate's DC stage: what its linearization starts from."""

    sizing: object
    #: What ``solve_dc`` assembles on: the bound stamp program, or the
    #: oracle's element walk.
    assembly: object
    #: Operating point; None when the DC solve failed.
    op: DcSolution | None = None
    power: float = float("inf")
    saturation: float = -1.0


class HybridEvaluator:
    """Evaluates two-stage-Miller sizings against an MDAC's problem."""

    def __init__(
        self,
        problem: MdacProblem,
        tech: Technology,
        common_mode: float | None = None,
        transient_points: int = 500,
    ):
        self.problem = problem
        self.tech = tech
        self.network = MdacNetwork.from_spec(problem)
        self.common_mode = common_mode if common_mode is not None else 0.45 * tech.vdd
        self.transient_points = transient_points
        self._warm_x: np.ndarray | None = None
        #: Counters for the ablation benchmarks and the metrics registry.
        self.equation_evals = 0
        self.transient_evals = 0
        #: Evaluations a ``reject`` callback cut short, by the stage after
        #: which it answered ``True`` (see :data:`REJECT_STAGES`).
        self.rejected_at = dict.fromkeys(REJECT_STAGES, 0)
        #: AC frequency points solved, the gain points included.
        self.ac_points = 0
        #: DC operating-point solves of the DC stage (a warm start and its
        #: cold retry count apart), and the Newton iterations of those that
        #: converged.
        self.dc_solves = 0
        self.newton_iterations = 0
        #: Timesteps of the settling transients that ran to their end.
        self.transient_steps = 0
        #: The loop bandwidth later candidates must reach [Hz] (see
        #: :meth:`require_bandwidth`), and the loop grid's split for it:
        #: the bottom is ``_LOOP_FREQS[1:k0]`` and the top ``_LOOP_FREQS[k0:]``,
        #: each held with its ``s`` (:func:`_split`).
        self.required_bw_hz = problem.closed_loop_bw_hz
        self._k0, self._top, self._bottom = _split(self.required_bw_hz)
        #: Frequency-last scratch for the per-candidate AC system stack.
        self._ac_cells: np.ndarray | None = None
        #: The testbench's bound stamp program, bound once, the writer of
        #: the amplifier's values into it, and the bench's free node
        #: voltages, which the AC read-outs solve for.
        self._bound: BoundMna | None = None
        self._write: ValueWriter | None = None
        self._free: FreeNodes | None = None
        #: Where the bench's read-outs sit, found at the first bind: the
        #: supply's branch current and ``out`` in the solution vector,
        #: ``out`` among the free node voltages, and the positions of
        #: ``m2`` and the signal devices among the MOSFETs.
        self._vdd_branch = self._out_node = self._out = self._m2 = 0
        self._signal: tuple[int, ...] = ()
        #: The testbench around the amplifier, which no sizing changes:
        #: supplies, the high-impedance unity feedback and the load.
        b = CircuitBuilder("tb", tech=tech)
        b.v("vdd", "gnd", dc=tech.vdd, name="vdd_src")
        b.v("inp", "gnd", dc=self.common_mode, ac=1.0, name="vin_src")
        # DC feedback path for biasing; invisible above ~1 kHz.
        b.r("out", "inm", 1e9, name="rfb")
        b.c("inm", "gnd", 1e-6, name="cfb")
        b.c("out", "gnd", self.network.c_eff, name="cload")
        self._testbench = b.circuit.elements

    def require_bandwidth(self, hz: float) -> None:
        """Judge later candidates' loop bandwidth against ``hz``.

        ``problem.closed_loop_bw_hz`` until called; a search that must
        settle faster than the problem's single-pole bound asks for more.
        """
        self.required_bw_hz = hz
        self._k0, self._top, self._bottom = _split(hz)

    @property
    def rejected_evals(self) -> int:
        """Evaluations a ``reject`` callback cut short, at any stage."""
        return sum(self.rejected_at.values())

    def _bind(self, sizing: TwoStageSizing):
        """The testbench's stamp program with ``sizing``'s values in it.

        The first candidate builds the bench (:meth:`_ac_bench`), binds
        its template and works out its free node voltages and where its
        read-outs sit.  Every later one writes only the values its sizing
        sets into the same :class:`~repro.analysis.template.BoundMna`: the
        topology never changes, and neither do the testbench elements.
        """
        bound = self._bound
        if bound is None:
            bench = self._ac_bench(sizing)
            bound = self._bound = bind_template(bench)
            # The amplifier's elements come first in the bench.
            amplifier = range(len(bench) - len(self._testbench))
            self._write = ValueWriter(bound, amplifier)
            layout = bound.layout
            self._free = FreeNodes(layout)
            self._vdd_branch = layout.branch("vdd_src")
            self._out_node = layout.index("out")
            self._out = self._free.index("out")
            names = bound.template.mos_names
            self._m2 = names.index("m2")
            self._signal = tuple(
                names.index(name) for name in _SIGNAL_DEVICES if name in names
            )
        else:
            self._write(two_stage_miller_values(self.tech, sizing))
        return bound

    def _read_out(
        self, system: FreeNodeSystem, grid: tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """:meth:`_transfer` over a read-out's ``(freqs, s)``, counted in
        :attr:`ac_points`."""
        freqs, s = grid
        self.ac_points += len(freqs)
        return self._transfer(system, freqs, s)

    def _system(self, staged: _StagedEvaluation) -> FreeNodeSystem:
        """The read-outs' system at the staged operating point, in one step.

        G and C are scattered from the DC solution's device arrays
        (:meth:`~repro.analysis.template.BoundMna.small_signal`) and sliced
        to the bench's free node voltages, C's nonzero cells found once,
        for all three read-outs.
        """
        bound = staged.assembly
        devices = staged.op.devices
        g, c = bound.small_signal(devices.cond, devices.meyer()[1])
        return self._free.system(g, c, bound.b_ac)

    def _transfer(
        self, system: FreeNodeSystem, freqs: np.ndarray, s: np.ndarray
    ) -> np.ndarray:
        """Amplifier transfer to ``out`` over ``freqs``: one stacked solve.

        ``s`` is ``2j*pi*freqs``, which fills the stack and the right-hand
        sides.  The system stack fills a per-evaluator frequency-last
        (k, k, F) scratch sized for the loop grid, through the (F, k, k)
        view of its first ``len(freqs)`` columns (see
        :func:`~repro.analysis.ac.ac_system_stack`), and each frequency
        solves against its own right-hand side.
        """
        k = system.size
        cells = self._ac_cells
        if cells is None or cells.shape[0] != k:
            cells = np.empty((k, k, len(_LOOP_FREQS)), dtype=complex)
            self._ac_cells = cells
        out = cells[:, :, : len(freqs)].transpose(2, 0, 1)
        stack = ac_system_stack(system, freqs, out=out, s=s)
        return solve_ac_stack(stack, system.excitation(s), freqs)[:, self._out]

    # -- testbench -----------------------------------------------------------

    def _ac_bench(self, sizing: TwoStageSizing) -> Circuit:
        """Opamp + supplies + high-impedance unity feedback + effective load."""
        amp = build_two_stage_miller(self.tech, sizing)
        bench = Circuit(f"acbench_{amp.name}")
        bench.extend(amp)
        bench.extend(self._testbench)
        return bench

    # -- evaluation ----------------------------------------------------------

    def evaluate(
        self,
        sizing: TwoStageSizing,
        run_transient: bool = False,
        reject: Reject | None = None,
    ) -> EvalResult:
        """Hybrid evaluation; set ``run_transient`` for the simulation half.

        ``reject(bound)`` asks whether any cost ``>= bound`` would be turned
        down.  It is asked after each stage, with the cost of the
        violations that stage knows, in the full dict's order, capped at
        :data:`FAILED_COST`:

        1. after the DC solve: the power and the saturation violation;
        2. after the 1 kHz gain point: the DC-gain violation joins;
        3. after the top of the loop grid, unless ``run_transient`` (a
           passing settling check zeroes the bandwidth term): the
           bandwidth violation, or a lower bound on it, joins.

        No bound is above the full :meth:`EvalResult.cost` (at its default
        power scale): every omitted term is ``>= 0``, IEEE rounding is
        monotone, and a failed later stage costs :data:`FAILED_COST`.  Each
        bound adds terms to the one before, so the bounds never decrease.
        A NaN bound never rejects.  On
        ``True`` the rest of the evaluation is skipped: the result carries
        what the stages so far computed (``dc_gain`` is NaN before the gain
        point), no loop margins, and an infinite ``rejected`` violation, so
        ``cost() == inf`` and it is not feasible.  A stage that fails
        returns the failed result and asks nothing more.
        """
        staged = self._stage_equation(sizing)
        if staged.op is None:
            return self._infeasible(sizing)
        saturation = (SATURATION_MARGIN - staged.saturation) / self.tech.vdd * 10.0
        partial = self._partial(staged, math.nan, {"saturation": saturation})
        if self._rejects(reject, partial, "dc"):
            return partial
        try:
            system = self._system(staged)
            gain_point = self._read_out(system, _GAIN)
        except (AnalysisError, ReproError):
            return self._infeasible(sizing)
        dc_gain = abs(float(np.real(gain_point[0])))
        gain = (self.problem.dc_gain_min - dc_gain) / self.problem.dc_gain_min
        gained = self._partial(
            staged, dc_gain, {"dc_gain": gain, "saturation": saturation}
        )
        if self._rejects(reject, gained, "gain"):
            return gained
        try:
            top = self._read_out(system, self._top)
        except (AnalysisError, ReproError):
            return self._infeasible(sizing)
        if reject is not None and not run_transient:
            bandwidth = _top_bandwidth_violation(
                self.required_bw_hz, self._top[0], np.abs(top) * self.network.beta
            )
            partial = self._partial(
                staged,
                dc_gain,
                {"dc_gain": gain, "bandwidth": bandwidth, "saturation": saturation},
            )
            if self._rejects(reject, partial, "bandwidth"):
                return partial
        try:
            bottom = self._read_out(system, self._bottom)
        except (AnalysisError, ReproError):
            return self._infeasible(sizing)
        loop = np.concatenate((gain_point, bottom, top))
        return self._finish(gained, loop, run_transient)

    def evaluate_batch(
        self, sizings: list[TwoStageSizing], run_transient: bool = False
    ) -> list[EvalResult]:
        """Score a population in list order: :meth:`evaluate` per sizing."""
        # No caller left in the package; kept because e2ebench/layers.py wraps it by name.
        return [self.evaluate(sizing, run_transient) for sizing in sizings]

    def _stage_equation(self, sizing: TwoStageSizing) -> _StagedEvaluation:
        """The order-dependent half: binding and DC solve."""
        self.equation_evals += 1
        staged = _StagedEvaluation(sizing, self._bind(sizing))
        try:
            op = self._solve_dc(staged.assembly)
        except (ConvergenceError, ReproError):
            return staged
        staged.op = op
        # The supply current's magnitude, read from the solution vector.
        staged.power = (
            self.tech.vdd * abs(op.x.item(self._vdd_branch)) * DIFFERENTIAL_FACTOR
        )
        staged.saturation = self._saturation_margin(op)
        return staged

    def _partial(
        self, staged: _StagedEvaluation, dc_gain: float, violations: dict[str, float]
    ) -> EvalResult:
        """What the stages so far decide: the result a bound is the cost of."""
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

    def _rejects(
        self, reject: Reject | None, partial: EvalResult, stage: str
    ) -> bool:
        """Ask ``reject`` with ``partial``'s capped cost; mark it if rejected."""
        if reject is None:
            return False
        # min() keeps a NaN cost as the bound (1e6 < nan is False).
        if not reject(float(min(partial.cost(), FAILED_COST))):
            return False
        self.rejected_at[stage] += 1
        partial.violations["rejected"] = math.inf
        return True

    def _finish(
        self, gained: EvalResult, loop: np.ndarray, run_transient: bool
    ) -> EvalResult:
        """Loop margins, transient and full violations after the loop grid."""
        loop_unity, pm = self._loop_margin_values(loop)
        settling = None
        if run_transient:
            settling = self._transient_settling(gained.sizing)
        violations = self._violations(gained.violations, loop_unity, pm, settling)
        return EvalResult(
            sizing=gained.sizing,
            power=gained.power,
            dc_gain=gained.dc_gain,
            loop_unity_hz=loop_unity,
            phase_margin=pm,
            saturation_margin=gained.saturation_margin,
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
        vout = op.x.item(self._out_node)
        if not 0.15 * self.tech.vdd < vout < 0.85 * self.tech.vdd:
            return True
        regions, _ = op.devices.meyer()
        return regions[self._m2] == "cutoff"

    def _counted_dc(self, assembly, **start) -> DcSolution:
        """:func:`solve_dc` on ``assembly``, counted in :attr:`dc_solves`
        and :attr:`newton_iterations`."""
        self.dc_solves += 1
        # The bound circuit names the solve; the program holds the values.
        op = solve_dc(assembly.layout.circuit, assembly=assembly, **start)
        self.newton_iterations += op.iterations
        return op

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

    def _saturation_margin(self, op: DcSolution) -> float:
        """The signal devices' smallest ``|vds| - vdsat``.

        The forward frame's vds is the terminal one up to its sign, and
        its veff is the operating point's vdsat.
        """
        detail = op.devices.detail
        margins = [abs(detail[k][1]) - detail[k][2] for k in self._signal]
        return min(margins) if margins else -1.0

    def _loop_margin_values(
        self, a: np.ndarray
    ) -> tuple[float | None, float | None]:
        """Unity crossing and phase margin of the loop gain a(s)*beta.

        ``a`` is the amplifier transfer over :data:`_LOOP_FREQS`; a(s) is
        measured from the non-inverting input (phase 0 at DC); the phase is
        unwrapped along the sweep so margins past -180 degrees report as
        negative instead of aliasing.  ``np.unwrap`` is causal (a running
        sum of corrections), so unwrapping up to the crossing's upper
        point gives the whole sweep's phase there, bit for bit.
        """
        crossing = _unity_crossing(_LOOP_FREQS, np.abs(a) * self.network.beta)
        if crossing is None:
            return None, None
        k, t, fx = crossing
        # The phase at the log-interpolated crossing.
        phase = np.degrees(np.unwrap(np.angle(a[: k + 2])))
        ph = phase[k] * (1 - t) + phase[k + 1] * t
        return fx, 180.0 + ph

    def _transient_settling(self, sizing: TwoStageSizing) -> float | None:
        """Nonlinear closed-loop settling error (the simulation half)."""
        self.transient_evals += 1
        amp = build_two_stage_miller(self.tech, sizing)
        # Per-side worst step of the differential implementation: each side
        # carries half the differential residue range.
        output_step = self.problem.output_swing / 4.0
        step = -output_step / (self.network.cs / self.network.cf)
        bench, ideal = build_settling_bench(
            amp,
            self.network,
            self.tech,
            step_voltage=step,
            common_mode=self.common_mode,
            step_time=SETTLING_STEP_TIME,
        )
        t_settle = self.problem.linear_settling_time + self.problem.slew_time
        t_stop = SETTLING_STEP_TIME + t_settle
        dt = t_settle / self.transient_points
        try:
            result = simulate_transient(bench, t_stop=t_stop, dt=dt, record=["out"])
        except (ConvergenceError, AnalysisError):
            return 1.0
        self.transient_steps += len(result.time) - 1
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

        ``early`` holds the DC-gain and saturation violations the gain
        point's bound was the cost of; the loop and settling entries go
        around them.
        """
        v: dict[str, float] = {"dc_gain": early["dc_gain"]}
        required_bw = self.required_bw_hz
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
            v["settling"] = (settling - self.problem.settling_error) / self.problem.settling_error / 10.0
            # The nonlinear transient *is* the settling requirement; when it
            # holds, the conservative linear bandwidth proxy is informative
            # only (the hybrid-evaluation principle of Section 3).
            if settling <= self.problem.settling_error:
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

