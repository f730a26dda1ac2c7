"""DC operating-point solver: damped Newton with gmin and source stepping.

Every Newton iterate builds the nonlinear KCL residual ``f(x)`` from the
circuit's compiled stamp program (:mod:`repro.analysis.template`), and a
jacobian ``J(x)`` only when it takes a step, with a per-step voltage limit.
If plain Newton fails the solver falls back to gmin stepping (a conductance
to ground on every node, relaxed geometrically) and then source stepping
(ramping all independent sources from zero), the standard SPICE homotopies.
The per-element stamp walk the program replays bit for bit is the oracle in
``tests/analysis/mna_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from repro.analysis.mna import GROUND
from repro.analysis.template import BoundMna, bind_template
from repro.circuit.netlist import Circuit
from repro.errors import ConvergenceError, SingularCircuitError
from repro.tech.mosfet import DeviceArrays, MosfetOperatingPoint

#: Maximum Newton iterations per attempt.
_MAX_ITER = 120
#: Per-iteration node-voltage step limit [V].
_VSTEP_LIMIT = 0.4
#: Convergence tolerance on the KCL residual [A].
_ABS_TOL = 1e-10


@dataclass
class DcSolution:
    """Result of a DC operating-point analysis.

    A solution of a bound stamp program also carries :attr:`devices`, its
    MOSFETs as plain lists, and builds :attr:`voltages`,
    :attr:`branch_currents` and :attr:`device_ops` from them and ``x`` on
    first read: a sizing loop reads the lists and ``x`` only.  Either way
    the fields, their equality and their pickle bytes are the same.
    """

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

    #: Every MOSFET at ``x`` (:meth:`~repro.analysis.template.BoundMna.device_arrays`),
    #: or None when the assembly solved on was not a bound stamp program.
    devices: ClassVar[DeviceArrays | None] = None

    def __getattr__(self, name: str):
        # Reached only for a field a packaged solution has not built yet.
        packed = self.__dict__.get("_packed")
        if packed is None or name not in _LAZY_FIELDS:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        layout, xl, names = packed
        if name == "voltages":
            value = dict(zip(layout.nets, xl))
            value["gnd"] = 0.0
            value.setdefault("0", 0.0)
        elif name == "branch_currents":
            branch_of = layout.branch_of
            value = {e.name: xl[branch_of[e.name]] for e in layout.branch_elements}
        else:
            value = dict(zip(names, self.devices.points(xl)))
        self.__dict__[name] = value
        return value

    def __getstate__(self) -> dict:
        # The fields in order, as a solution built with all of them pickles.
        return {name: getattr(self, name) for name in _FIELDS}

    def voltage(self, net: str) -> float:
        """Node voltage of ``net``."""
        return self.voltages[net] if net not in ("0", "GND") else 0.0

    def supply_current(self, source_name: str) -> float:
        """Current delivered by a voltage source (positive out of + terminal)."""
        return -self.branch_currents[source_name]


#: The fields of :class:`DcSolution`, and those a packaged one builds lazily.
_FIELDS = tuple(f.name for f in fields(DcSolution))
_LAZY_FIELDS = ("voltages", "branch_currents", "device_ops")


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


def _within(values: list[float], tol: float) -> bool:
    """``_abs_max(values) < tol``, exactly: the Newton convergence test.

    C-level ``max`` and ``min`` skip a NaN that is not first, so they only
    rule out: a list they pass still pays for the NaN-aware scan, which a
    Newton loop meets once per converged solve or timestep.
    """
    return (
        max(values, default=0.0) < tol
        and min(values, default=0.0) > -tol
        and _abs_max(values) < tol
    )


def _limit_step(dx: np.ndarray, n_nodes: int, limit: float) -> None:
    """Scale ``dx`` in place so no node-voltage step exceeds ``limit``.

    Exactly ``step = _abs_max(dx[:n_nodes]); if step > limit: dx *=
    limit / step``, with C-level ``max``/``min`` deciding first whether
    the scan can find a step past the limit (a NaN step scales nothing).
    """
    head = dx[:n_nodes].tolist()
    if max(head, default=0.0) > limit or min(head, default=0.0) < -limit:
        step = _abs_max(head)
        if step > limit:
            dx *= limit / step


def _newton(
    assembly,
    x0: np.ndarray,
    gmin: float,
    source_scale: float,
    max_iter: int = _MAX_ITER,
) -> tuple[np.ndarray, int, float]:
    """Run damped Newton; returns (x, iterations, residual_norm).

    ``assembly`` is a bound :class:`repro.analysis.template.MnaTemplate`
    (anything with its ``layout``, ``residual``, ``jacobian`` and
    ``newton_solve`` will do; :func:`_package` also asks any other
    assembly for its ``operating_points``).  Only an iterate that takes a
    step builds a jacobian.
    """
    layout = assembly.layout
    x = x0.copy()
    n_nodes = len(layout.nets)
    values = [np.inf]
    solve = assembly.newton_solve
    for iteration in range(1, max_iter + 1):
        resid = assembly.residual(x, gmin, source_scale)
        values = resid.tolist()
        if _within(values, _ABS_TOL):
            return x, iteration, _abs_max(values)
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
        _limit_step(dx, n_nodes, _VSTEP_LIMIT)
        x = x + dx
    raise ConvergenceError(
        f"DC Newton did not converge (residual {_abs_max(values):.3e} A)"
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
    warm starts during optimization loops.  ``assembly`` is a bound
    :class:`repro.analysis.template.MnaTemplate` of ``circuit``'s topology
    to reuse, and the values it holds are the ones solved: an evaluation
    loop writes each candidate's values into one
    (:class:`~repro.analysis.template.ValueWriter`) and passes the circuit
    it was bound to, of which only the name is read.  Without it the
    circuit's cached template is bound for this call, which raises
    :class:`~repro.errors.AnalysisError` for an element kind it cannot
    compile.
    """
    if assembly is None:
        assembly = bind_template(circuit)
    layout = assembly.layout
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
        x, iters, residual = _newton(assembly, start, gmin=0.0, source_scale=1.0)
        return _package(assembly, x, iterations_total + iters, "newton", residual)
    except (ConvergenceError, SingularCircuitError):
        pass

    # Strategy 2: gmin stepping, finishing with a gmin-free polish.
    x = start.copy()
    try:
        for gmin in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12):
            x, iters, residual = _newton(assembly, x, gmin=gmin, source_scale=1.0)
            iterations_total += iters
        x, iters, residual = _newton(assembly, x, gmin=0.0, source_scale=1.0)
        iterations_total += iters
        return _package(assembly, x, iterations_total, "gmin", residual)
    except (ConvergenceError, SingularCircuitError):
        pass

    # Strategy 3: source stepping (with mild gmin held during the ramp).
    x = np.zeros(layout.size)
    iterations_total = 0
    try:
        for alpha in (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0):
            x, iters, residual = _newton(assembly, x, gmin=1e-9, source_scale=alpha)
            iterations_total += iters
        x, iters, residual = _newton(assembly, x, gmin=0.0, source_scale=1.0)
        iterations_total += iters
        return _package(assembly, x, iterations_total, "source", residual)
    except (ConvergenceError, SingularCircuitError) as exc:
        raise ConvergenceError(
            f"DC analysis of {circuit.name!r} failed after Newton, gmin and "
            f"source stepping: {exc}"
        ) from exc


def _package(
    assembly, x: np.ndarray, iterations: int, strategy: str, residual: float
) -> DcSolution:
    """The :class:`DcSolution` of ``x``.

    On a bound stamp program it carries the program's device arrays at
    ``x``, the converged Newton loop's last evaluation, and builds its
    dicts on first read; any other assembly packages its
    ``operating_points`` as they are.
    """
    solution = object.__new__(DcSolution)
    state = solution.__dict__
    state.update(x=x, iterations=iterations, strategy=strategy, residual=residual)
    layout = assembly.layout
    if isinstance(assembly, BoundMna):
        xl, state["devices"] = assembly.device_arrays(x)
        names = assembly.template.mos_names
    else:
        xl = x.tolist()
        state["device_ops"] = assembly.operating_points(x)
        names = ()
    state["_packed"] = (layout, xl, names)
    return solution
