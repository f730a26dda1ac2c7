"""DC operating-point solver: damped Newton with gmin and source stepping.

The solver assembles the nonlinear KCL residual ``f(x)`` and Jacobian
``J(x)`` from element stamps and iterates Newton with a per-step voltage
limit.  If plain Newton fails it falls back to gmin stepping (a conductance
to ground on every node, relaxed geometrically) and then source stepping
(ramping all independent sources from zero), the standard SPICE homotopies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.mna import (
    GROUND,
    MnaLayout,
    layout_for,
    stamp_conductance,
    stamp_current,
    stamp_transconductance,
    stamp_vcvs,
    stamp_voltage_source,
)
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
from repro.circuit.netlist import Circuit
from repro.errors import ConvergenceError, SingularCircuitError
from repro.tech.mosfet import MosfetOperatingPoint, dc_current, operating_point

#: Maximum Newton iterations per attempt.
_MAX_ITER = 120
#: Per-iteration node-voltage step limit [V].
_VSTEP_LIMIT = 0.4
#: Convergence tolerance on the KCL residual [A].
_ABS_TOL = 1e-10


@dataclass
class DcSolution:
    """Result of a DC operating-point analysis."""

    #: Node voltages by net name (ground included, 0 V).
    voltages: dict[str, float]
    #: Branch currents by element name (V sources, VCVS, inductors).
    branch_currents: dict[str, float]
    #: Small-signal operating points of every MOSFET, by element name.
    device_ops: dict[str, MosfetOperatingPoint]
    #: Raw unknown vector (for warm starts).
    x: np.ndarray
    #: Newton iterations used (total across homotopy steps).
    iterations: int
    #: Which strategy converged: 'newton', 'gmin', or 'source'.
    strategy: str
    #: Final residual infinity-norm [A].
    residual: float

    def voltage(self, net: str) -> float:
        """Node voltage of ``net``."""
        return self.voltages[net] if net not in ("0", "GND") else 0.0

    def supply_current(self, source_name: str) -> float:
        """Current delivered by a voltage source (positive out of + terminal)."""
        return -self.branch_currents[source_name]


def _assemble(
    layout: MnaLayout,
    x: np.ndarray,
    gmin: float,
    source_scale: float,
    time: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the Newton system: returns (jacobian, residual)."""
    n = layout.size
    jac = np.zeros((n, n))
    resid = np.zeros(n)

    def v(idx: int) -> float:
        return 0.0 if idx == GROUND else x[idx]

    for element in layout.circuit:
        if isinstance(element, Resistor):
            i, j = layout.index(element.n1), layout.index(element.n2)
            g = 1.0 / element.resistance
            stamp_conductance(jac, i, j, g)
            current = g * (v(i) - v(j))
            if i != GROUND:
                resid[i] += current
            if j != GROUND:
                resid[j] -= current
        elif isinstance(element, Switch):
            i, j = layout.index(element.n1), layout.index(element.n2)
            g = 1.0 / element.resistance_at(time)
            stamp_conductance(jac, i, j, g)
            current = g * (v(i) - v(j))
            if i != GROUND:
                resid[i] += current
            if j != GROUND:
                resid[j] -= current
        elif isinstance(element, Capacitor):
            continue  # open in DC
        elif isinstance(element, CurrentSource):
            p, ncur = layout.index(element.positive), layout.index(element.negative)
            value = element.dc * source_scale
            if p != GROUND:
                resid[p] += value
            if ncur != GROUND:
                resid[ncur] -= value
        elif isinstance(element, VoltageSource):
            p, nn = layout.index(element.positive), layout.index(element.negative)
            k = layout.branch(element.name)
            stamp_voltage_source(jac, np.zeros(n), p, nn, k, 0.0)
            ik = x[k]
            if p != GROUND:
                resid[p] += ik
            if nn != GROUND:
                resid[nn] -= ik
            resid[k] += v(p) - v(nn) - element.dc * source_scale
        elif isinstance(element, Vcvs):
            op_, on_ = layout.index(element.out_positive), layout.index(element.out_negative)
            cp, cn = layout.index(element.ctrl_positive), layout.index(element.ctrl_negative)
            k = layout.branch(element.name)
            stamp_vcvs(jac, op_, on_, cp, cn, k, element.gain)
            ik = x[k]
            if op_ != GROUND:
                resid[op_] += ik
            if on_ != GROUND:
                resid[on_] -= ik
            resid[k] += v(op_) - v(on_) - element.gain * (v(cp) - v(cn))
        elif isinstance(element, Vccs):
            op_, on_ = layout.index(element.out_positive), layout.index(element.out_negative)
            cp, cn = layout.index(element.ctrl_positive), layout.index(element.ctrl_negative)
            stamp_transconductance(jac, op_, on_, cp, cn, element.gm)
            current = element.gm * (v(cp) - v(cn))
            if op_ != GROUND:
                resid[op_] += current
            if on_ != GROUND:
                resid[on_] -= current
        elif isinstance(element, Inductor):
            p, nn = layout.index(element.n1), layout.index(element.n2)
            k = layout.branch(element.name)
            # DC: behaves as a 0 V source (short).
            stamp_voltage_source(jac, np.zeros(n), p, nn, k, 0.0)
            ik = x[k]
            if p != GROUND:
                resid[p] += ik
            if nn != GROUND:
                resid[nn] -= ik
            resid[k] += v(p) - v(nn)
        elif isinstance(element, Mosfet):
            d = layout.index(element.drain)
            g_ = layout.index(element.gate)
            s = layout.index(element.source)
            b = layout.index(element.bulk)
            vgs = v(g_) - v(s)
            vds = v(d) - v(s)
            vbs = v(b) - v(s)
            ids, gm, gds, gmb = dc_current(
                element.params, element.w, element.l, vgs, vds, vbs
            )
            ids *= element.mult
            gm *= element.mult
            gds *= element.mult
            gmb *= element.mult
            if d != GROUND:
                resid[d] += ids
            if s != GROUND:
                resid[s] -= ids
            # Jacobian: dIds/d(vg, vd, vb, vs).
            for row, sign in ((d, +1.0), (s, -1.0)):
                if row == GROUND:
                    continue
                if g_ != GROUND:
                    jac[row, g_] += sign * gm
                if d != GROUND:
                    jac[row, d] += sign * gds
                if b != GROUND:
                    jac[row, b] += sign * gmb
                if s != GROUND:
                    jac[row, s] -= sign * (gm + gds + gmb)
        else:
            raise SingularCircuitError(
                f"element type {type(element).__name__} not supported in DC"
            )

    if gmin > 0.0:
        for i in range(len(layout.nets)):
            jac[i, i] += gmin
            resid[i] += gmin * x[i]
    return jac, resid


def _abs_max(values: list[float]) -> float:
    """``float(np.max(np.abs(values)))`` of Python floats; 0.0 when empty.

    Python's ``max`` skips a NaN that is not first, where ``np.max``
    returns NaN.  A sum is NaN only when a NaN or both infinities are
    present, so one cheap pass routes the rare case to an exact scan and
    a NaN still fails every ``<`` check it meets.
    """
    peak = max(map(abs, values), default=0.0)
    total = sum(values)
    if total != total and any(v != v for v in values):
        return math.nan
    return peak


def _newton(
    layout: MnaLayout,
    x0: np.ndarray,
    gmin: float,
    source_scale: float,
    max_iter: int = _MAX_ITER,
    assembly=None,
) -> tuple[np.ndarray, int, float]:
    """Run damped Newton; returns (x, iterations, residual_norm).

    ``assembly`` (a bound :class:`repro.analysis.template.MnaTemplate`)
    overrides the per-element stamp walk with the compiled residual and
    its linear solve, and builds a jacobian only for an iterate that
    takes a step; both produce bit-identical results.
    """
    x = x0.copy()
    n_nodes = len(layout.nets)
    residual_norm = np.inf
    if assembly is None:
        solve = np.linalg.solve
    else:
        solve = assembly.newton_solve
    for iteration in range(1, max_iter + 1):
        if assembly is None:
            jac, resid = _assemble(layout, x, gmin, source_scale)
        else:
            resid = assembly.residual(x, gmin, source_scale)
        residual_norm = _abs_max(resid.tolist())
        if residual_norm < _ABS_TOL:
            return x, iteration, residual_norm
        if assembly is not None:
            jac = assembly.jacobian(gmin)
        try:
            dx = solve(jac, -resid)
        except np.linalg.LinAlgError:
            jac = jac + np.eye(layout.size) * 1e-12
            try:
                dx = solve(jac, -resid)
            except np.linalg.LinAlgError as exc:
                raise SingularCircuitError(
                    f"singular MNA matrix in circuit {layout.circuit.name!r} "
                    "(floating node or voltage-source loop?)"
                ) from exc
        # Limit node-voltage steps to keep the model in a sane region.
        step = _abs_max(dx[:n_nodes].tolist())
        if step > _VSTEP_LIMIT:
            dx *= _VSTEP_LIMIT / step
        x = x + dx
    raise ConvergenceError(
        f"DC Newton did not converge (residual {residual_norm:.3e} A)"
    )


def solve_dc(
    circuit: Circuit,
    initial_guess: dict[str, float] | None = None,
    x0: np.ndarray | None = None,
    assembly=None,
) -> DcSolution:
    """Solve the DC operating point of ``circuit``.

    ``initial_guess`` optionally seeds node voltages by net name;
    ``x0`` (from a previous :class:`DcSolution`) wins over both and enables
    warm starts during optimization loops.  ``assembly`` (a bound
    :class:`repro.analysis.template.MnaTemplate`) swaps the per-element
    Python stamp walk for the compiled assembler — results are
    bit-identical either way.
    """
    if assembly is not None:
        layout = assembly.layout
    else:
        layout = layout_for(circuit)
    start = np.zeros(layout.size)
    if x0 is not None:
        if len(x0) != layout.size:
            raise ConvergenceError("x0 has wrong size for this circuit")
        start = np.asarray(x0, dtype=float).copy()
    elif initial_guess:
        for net, value in initial_guess.items():
            idx = layout.index(net)
            if idx != GROUND:
                start[idx] = value

    iterations_total = 0
    # Strategy 1: plain Newton.
    try:
        x, iters, residual = _newton(
            layout, start, gmin=0.0, source_scale=1.0, assembly=assembly
        )
        return _package(layout, x, iterations_total + iters, "newton", residual)
    except (ConvergenceError, SingularCircuitError):
        pass

    # Strategy 2: gmin stepping, finishing with a gmin-free polish.
    x = start.copy()
    try:
        for gmin in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12):
            x, iters, residual = _newton(
                layout, x, gmin=gmin, source_scale=1.0, assembly=assembly
            )
            iterations_total += iters
        x, iters, residual = _newton(
            layout, x, gmin=0.0, source_scale=1.0, assembly=assembly
        )
        iterations_total += iters
        return _package(layout, x, iterations_total, "gmin", residual)
    except (ConvergenceError, SingularCircuitError):
        pass

    # Strategy 3: source stepping (with mild gmin held during the ramp).
    x = np.zeros(layout.size)
    iterations_total = 0
    try:
        for alpha in (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0):
            x, iters, residual = _newton(
                layout, x, gmin=1e-9, source_scale=alpha, assembly=assembly
            )
            iterations_total += iters
        x, iters, residual = _newton(
            layout, x, gmin=0.0, source_scale=1.0, assembly=assembly
        )
        iterations_total += iters
        return _package(layout, x, iterations_total, "source", residual)
    except (ConvergenceError, SingularCircuitError) as exc:
        raise ConvergenceError(
            f"DC analysis of {circuit.name!r} failed after Newton, gmin and "
            f"source stepping: {exc}"
        ) from exc


def _package(
    layout: MnaLayout, x: np.ndarray, iterations: int, strategy: str, residual: float
) -> DcSolution:
    voltages = layout.voltages(x)
    voltages.setdefault("0", 0.0)
    branch_currents = {
        e.name: float(x[layout.branch(e.name)]) for e in layout.branch_elements
    }

    def v(net: str) -> float:
        return 0.0 if net in ("0", "gnd", "GND") else voltages[net]

    device_ops: dict[str, MosfetOperatingPoint] = {}
    for element in layout.circuit.elements_of(Mosfet):
        op = operating_point(
            element.params,
            element.w * element.mult,
            element.l,
            v(element.gate) - v(element.source),
            v(element.drain) - v(element.source),
            v(element.bulk) - v(element.source),
        )
        device_ops[element.name] = op
    return DcSolution(
        voltages=voltages,
        branch_currents=branch_currents,
        device_ops=device_ops,
        x=x,
        iterations=iterations,
        strategy=strategy,
        residual=residual,
    )
