"""The per-element transient walk, kept as the oracle of the compiled step.

This is the transient engine as it ran before the step loop moved onto the
compiled stamp program: an ``isinstance`` dispatch per element and scalar
``+=`` stamps inside every Newton iteration, Python loops for the capacitor
history and the trace recording.  ``tests/analysis/test_transient_compiled.py``
requires :func:`repro.analysis.transient.simulate_transient` to reproduce
its waveforms bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.dc import DcSolution
from repro.analysis.mna import GROUND, MnaLayout
from repro.analysis.transient import TransientResult
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
from repro.errors import AnalysisError, ConvergenceError
from repro.tech.mosfet import dc_current
from tests.analysis.mna_reference import (
    stamp_conductance,
    stamp_transconductance,
    stamp_vcvs,
    walk_solve_dc,
)

_MAX_NEWTON = 60
_ABS_TOL = 1e-9
_VSTEP_LIMIT = 1.0


def _initial_dc(circuit: Circuit) -> tuple[Circuit, DcSolution]:
    """DC solution at t=0 with waveform sources frozen at their t=0 values."""
    frozen = Circuit(circuit.name + "_t0")
    for element in circuit:
        if isinstance(element, (VoltageSource, CurrentSource)) and element.waveform:
            frozen.add(dataclasses.replace(element, dc=element.value_at(0.0), waveform=None))
        else:
            frozen.add(element)
    return frozen, walk_solve_dc(frozen)


def simulate_transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    record: list[str] | None = None,
    method: str = "trap",
    initial: DcSolution | None = None,
) -> TransientResult:
    """Integrate the circuit from its DC state at t=0 to ``t_stop``.

    ``record`` limits which nets are stored (default: all non-ground nets).
    ``method`` is ``"trap"`` (trapezoidal, default) or ``"be"``
    (backward Euler, more damped but L-stable).
    """
    if t_stop <= 0 or dt <= 0 or dt > t_stop:
        raise AnalysisError("need 0 < dt <= t_stop")
    if method not in ("trap", "be"):
        raise AnalysisError(f"unknown method {method!r}")

    layout = MnaLayout(circuit)
    if initial is None:
        _, initial = _initial_dc(circuit)
    x = initial.x.copy()
    if len(x) != layout.size:
        raise AnalysisError("initial DC solution does not match circuit")

    # Fixed capacitor stamps: explicit caps + device caps at the t=0 OP.
    cap_stamps: list[tuple[int, int, float]] = []
    for element in circuit:
        if isinstance(element, Capacitor):
            cap_stamps.append(
                (layout.index(element.n1), layout.index(element.n2), element.capacitance)
            )
        elif isinstance(element, Mosfet):
            op = initial.device_ops[element.name]
            d, g_ = layout.index(element.drain), layout.index(element.gate)
            s, b = layout.index(element.source), layout.index(element.bulk)
            for (i, j, c) in (
                (g_, s, op.cgs),
                (g_, d, op.cgd),
                (g_, b, op.cgb),
                (d, b, op.cdb),
                (s, b, op.csb),
            ):
                if c > 0.0:
                    cap_stamps.append((i, j, c))

    n_steps = int(round(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    nets = record if record is not None else layout.nets
    indices = {net: layout.index(net) for net in nets}
    traces = {net: np.zeros(n_steps + 1) for net in nets}
    for net, idx in indices.items():
        traces[net][0] = 0.0 if idx == GROUND else x[idx]

    # Per-cap companion state: current through the cap at the previous step.
    cap_current = [0.0] * len(cap_stamps)
    # Per-inductor previous voltage (for trapezoidal).
    inductors = [e for e in circuit if isinstance(e, Inductor)]
    ind_prev_v = {e.name: 0.0 for e in inductors}

    def node_v(vec: np.ndarray, idx: int) -> float:
        return 0.0 if idx == GROUND else float(vec[idx])

    for step in range(1, n_steps + 1):
        t = times[step]
        x_prev = x.copy()
        x = _solve_step(
            layout,
            circuit,
            x_prev,
            t,
            dt,
            method,
            cap_stamps,
            cap_current,
            ind_prev_v,
            initial,
        )
        # Update companion states.
        for k, (i, j, c) in enumerate(cap_stamps):
            dv_new = node_v(x, i) - node_v(x, j)
            dv_old = node_v(x_prev, i) - node_v(x_prev, j)
            if method == "trap":
                cap_current[k] = (2.0 * c / dt) * (dv_new - dv_old) - cap_current[k]
            else:
                cap_current[k] = (c / dt) * (dv_new - dv_old)
        for e in inductors:
            p, nn = layout.index(e.n1), layout.index(e.n2)
            ind_prev_v[e.name] = node_v(x, p) - node_v(x, nn)
        for net, idx in indices.items():
            traces[net][step] = 0.0 if idx == GROUND else x[idx]

    return TransientResult(time=times, waveforms=traces)


def _solve_step(
    layout: MnaLayout,
    circuit: Circuit,
    x_prev: np.ndarray,
    t: float,
    dt: float,
    method: str,
    cap_stamps: list[tuple[int, int, float]],
    cap_current: list[float],
    ind_prev_v: dict[str, float],
    initial: DcSolution,
) -> np.ndarray:
    """Newton-solve one timestep; returns the new unknown vector."""
    n = layout.size
    x = x_prev.copy()

    def node_v(vec: np.ndarray, idx: int) -> float:
        return 0.0 if idx == GROUND else float(vec[idx])

    for _ in range(_MAX_NEWTON):
        jac = np.zeros((n, n))
        resid = np.zeros(n)

        for element in circuit:
            if isinstance(element, Resistor):
                i, j = layout.index(element.n1), layout.index(element.n2)
                g = 1.0 / element.resistance
                stamp_conductance(jac, i, j, g)
                cur = g * (node_v(x, i) - node_v(x, j))
                if i != GROUND:
                    resid[i] += cur
                if j != GROUND:
                    resid[j] -= cur
            elif isinstance(element, Switch):
                i, j = layout.index(element.n1), layout.index(element.n2)
                g = 1.0 / element.resistance_at(t)
                stamp_conductance(jac, i, j, g)
                cur = g * (node_v(x, i) - node_v(x, j))
                if i != GROUND:
                    resid[i] += cur
                if j != GROUND:
                    resid[j] -= cur
            elif isinstance(element, Capacitor):
                continue  # handled by cap_stamps below
            elif isinstance(element, CurrentSource):
                p, nn = layout.index(element.positive), layout.index(element.negative)
                value = element.value_at(t)
                if p != GROUND:
                    resid[p] += value
                if nn != GROUND:
                    resid[nn] -= value
            elif isinstance(element, VoltageSource):
                p, nn = layout.index(element.positive), layout.index(element.negative)
                k = layout.branch(element.name)
                if p != GROUND:
                    jac[p, k] += 1.0
                    jac[k, p] += 1.0
                    resid[p] += x[k]
                if nn != GROUND:
                    jac[nn, k] -= 1.0
                    jac[k, nn] -= 1.0
                    resid[nn] -= x[k]
                resid[k] += node_v(x, p) - node_v(x, nn) - element.value_at(t)
            elif isinstance(element, Vcvs):
                op_ = layout.index(element.out_positive)
                on_ = layout.index(element.out_negative)
                cp = layout.index(element.ctrl_positive)
                cn = layout.index(element.ctrl_negative)
                k = layout.branch(element.name)
                stamp_vcvs(jac, op_, on_, cp, cn, k, element.gain)
                if op_ != GROUND:
                    resid[op_] += x[k]
                if on_ != GROUND:
                    resid[on_] -= x[k]
                resid[k] += (
                    node_v(x, op_)
                    - node_v(x, on_)
                    - element.gain * (node_v(x, cp) - node_v(x, cn))
                )
            elif isinstance(element, Vccs):
                op_ = layout.index(element.out_positive)
                on_ = layout.index(element.out_negative)
                cp = layout.index(element.ctrl_positive)
                cn = layout.index(element.ctrl_negative)
                stamp_transconductance(jac, op_, on_, cp, cn, element.gm)
                cur = element.gm * (node_v(x, cp) - node_v(x, cn))
                if op_ != GROUND:
                    resid[op_] += cur
                if on_ != GROUND:
                    resid[on_] -= cur
            elif isinstance(element, Inductor):
                p, nn = layout.index(element.n1), layout.index(element.n2)
                k = layout.branch(element.name)
                i_prev = x_prev[k]
                v_prev = ind_prev_v[element.name]
                if method == "trap":
                    # v_new + v_prev = (2L/dt)(i_new - i_prev)
                    r_eq = 2.0 * element.inductance / dt
                    rhs = r_eq * i_prev + v_prev
                else:
                    r_eq = element.inductance / dt
                    rhs = r_eq * i_prev
                if p != GROUND:
                    jac[p, k] += 1.0
                    jac[k, p] += 1.0
                    resid[p] += x[k]
                if nn != GROUND:
                    jac[nn, k] -= 1.0
                    jac[k, nn] -= 1.0
                    resid[nn] -= x[k]
                jac[k, k] -= r_eq
                resid[k] += node_v(x, p) - node_v(x, nn) - r_eq * x[k] + rhs
            elif isinstance(element, Mosfet):
                d = layout.index(element.drain)
                g_ = layout.index(element.gate)
                s = layout.index(element.source)
                b = layout.index(element.bulk)
                vgs = node_v(x, g_) - node_v(x, s)
                vds = node_v(x, d) - node_v(x, s)
                vbs = node_v(x, b) - node_v(x, s)
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
                raise AnalysisError(
                    f"element type {type(element).__name__} not supported in transient"
                )

        # Capacitor companion models.
        for k_cap, (i, j, c) in enumerate(cap_stamps):
            if method == "trap":
                g_eq = 2.0 * c / dt
                dv_old = node_v(x_prev, i) - node_v(x_prev, j)
                i_eq = -g_eq * dv_old - cap_current[k_cap]
            else:
                g_eq = c / dt
                dv_old = node_v(x_prev, i) - node_v(x_prev, j)
                i_eq = -g_eq * dv_old
            stamp_conductance(jac, i, j, g_eq)
            cur = g_eq * (node_v(x, i) - node_v(x, j)) + i_eq
            if i != GROUND:
                resid[i] += cur
            if j != GROUND:
                resid[j] -= cur

        residual_norm = float(np.max(np.abs(resid)))
        if residual_norm < _ABS_TOL * max(1.0, float(np.max(np.abs(x)))):
            return x
        try:
            dx = np.linalg.solve(jac, -resid)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"transient Newton singular at t={t:.3e}s") from exc
        n_nodes = len(layout.nets)
        step = np.max(np.abs(dx[:n_nodes])) if n_nodes else 0.0
        if step > _VSTEP_LIMIT:
            dx *= _VSTEP_LIMIT / step
        x = x + dx

    raise ConvergenceError(f"transient Newton did not converge at t={t:.3e}s")
