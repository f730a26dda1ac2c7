"""Transient analysis: fixed-step trapezoidal / backward-Euler integration.

Each timestep solves the nonlinear circuit by Newton iteration with
companion models for the reactive elements.  Clocked switches and source
waveforms are evaluated at every step, which is what the switched-capacitor
MDAC settling simulations need.

MOSFET capacitances are frozen at their t=0 operating-point values
(quasi-static approximation); the nonlinear drain current is evaluated
exactly at every Newton iteration, so slewing — the large-swing effect the
paper singles out for simulation — is captured.

The step loop runs on the circuit's compiled stamp program
(:mod:`repro.analysis.template`), the one the t=0 DC solve binds.  The DC
program supplies every element stamp; per step only the switch
conductances and the waveform-source values change.  The inductor
companion branches and the capacitor companion stamps follow it, with
values fixed once per call (the MOSFET capacitances at the t=0 operating
point).  Each Newton iteration builds the jacobian and the residual with
one ``np.bincount`` each over the ordered entry list.  ``np.bincount``
adds its weights in input order, so every cell receives the same float
additions, in the same order, as in the per-element walk with
``isinstance`` dispatch and scalar ``+=`` stamps: the waveforms are
bit-identical to that walk, which ``tests/analysis/transient_reference.py``
keeps as the oracle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.analysis.dc import DcSolution, solve_dc
from repro.analysis.mna import GROUND, layout_for
from repro.analysis.template import (
    _CAP_KINDS,
    _OP_DC,
    _OP_SW_INV,
    _OP_ZERO,
    BoundMna,
    bind_template,
)
from repro.circuit.elements import CurrentSource, VoltageSource
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ConvergenceError
from repro.tech.mosfet import dc_current

_MAX_NEWTON = 60
_ABS_TOL = 1e-9
_VSTEP_LIMIT = 1.0


@dataclass
class TransientResult:
    """Waveforms from a transient simulation."""

    #: Time points [s].
    time: np.ndarray
    #: Node voltage waveforms by net name.
    waveforms: dict[str, np.ndarray]

    def voltage(self, net: str) -> np.ndarray:
        """Waveform of a net."""
        if net in ("0", "gnd", "GND"):
            return np.zeros_like(self.time)
        try:
            return self.waveforms[net]
        except KeyError:
            raise AnalysisError(f"net {net!r} was not recorded") from None

    def final_value(self, net: str) -> float:
        """Last sample of a net's waveform."""
        return float(self.voltage(net)[-1])

    def settling_time(
        self, net: str, target: float, tolerance: float, t_start: float = 0.0
    ) -> float | None:
        """First time after which the net stays within ``tolerance`` of target.

        Returns None if the waveform never settles within the simulated window.
        """
        v = self.voltage(net)
        inside = np.abs(v - target) <= tolerance
        valid = self.time >= t_start
        candidate = None
        for k in range(len(self.time)):
            if not valid[k]:
                continue
            if inside[k] and candidate is None:
                candidate = self.time[k]
            elif not inside[k]:
                candidate = None
        return None if candidate is None else float(candidate)


def _initial_dc(circuit: Circuit) -> tuple[BoundMna, DcSolution]:
    """DC solution at t=0 with waveform sources frozen at their t=0 values.

    Returns the bound stamp program the solve used with the solution; the
    frozen circuit shares the original's topology, so the step loop reuses
    that binding.
    """
    frozen = Circuit(circuit.name + "_t0")
    for element in circuit:
        if isinstance(element, (VoltageSource, CurrentSource)) and element.waveform:
            frozen.add(dataclasses.replace(element, dc=element.value_at(0.0), waveform=None))
        else:
            frozen.add(element)
    bound = bind_template(frozen)
    return bound, solve_dc(frozen, assembly=bound)


def _ext(idx: int, n: int) -> int:
    """Slot of an unknown index in the ground-extended vector (ground -> n)."""
    return n if idx == GROUND else idx


class _StepProgram:
    """One run's Newton system, assembled from a bound stamp program.

    Entry lists are the DC program's followed by the inductor companion
    diagonals and then the capacitor companion stamps, in netlist order —
    the order the element walk applied them.  ``begin_step`` refreshes
    what depends on time (switch conductances, waveform-source values) and
    on the accepted previous solution (companion history currents);
    ``assemble`` rebuilds the jacobian and residual for one Newton iterate;
    ``end_step`` advances the capacitor and inductor history.
    """

    def __init__(
        self,
        bound: BoundMna,
        circuit: Circuit,
        initial: DcSolution,
        dt: float,
        method: str,
    ):
        t = bound.template
        n = t.size
        self.size = n
        self._trap = trap = method == "trap"
        self._t = t
        self._mos_args = bound._mos_args
        # (gm, gds, gmb, gm + gds + gmb) per device, flattened.
        self._j_mos_val = t._j_mos_dev * 4 + t._j_mos_kind
        self._vg_gain = bound._vg_gain
        self._xe = np.zeros(n + 1)
        self._devices_x = None
        self._devices_at = (np.zeros(0), np.zeros(0))

        # Time-dependent slots of the DC program: switches and sources.
        pair_sw = [
            i for i, (op, _, _) in enumerate(t._pair_slots) if op == _OP_SW_INV
        ]
        self._switches = [circuit[t._pair_slots[i][1]] for i in pair_sw]
        sw_of = {sw.name: k for k, sw in enumerate(self._switches)}
        j_sw = [
            (pos, sw_of[name], -1.0 if negate else 1.0)
            for pos, (op, name, negate) in zip(t._j_const_pos, t._j_const_slots)
            if op == _OP_SW_INV
        ]
        self._pair_sw = np.asarray(pair_sw, dtype=np.intp)
        self._j_sw_pos = np.asarray([p for p, _, _ in j_sw], dtype=np.intp)
        self._j_sw_src = np.asarray([s for _, s, _ in j_sw], dtype=np.intp)
        self._j_sw_sign = np.asarray([g for _, _, g in j_sw], dtype=float)
        self._pair_coeff = bound._pair_coeff.copy()

        vs = [i for i, (op, _, _) in enumerate(t._vc_dc_slots) if op == _OP_DC]
        ind = [i for i, (op, _, _) in enumerate(t._vc_dc_slots) if op == _OP_ZERO]
        vs_elems = [circuit[t._vc_dc_slots[i][1]] for i in vs]
        self._vs_pos = t._r_vc_pos[vs]
        self._vs_p = t._vc_p[vs]
        self._vs_n = t._vc_n[vs]
        self._vs_val = np.array([e.dc for e in vs_elems], dtype=float)
        self._vs_wave = [(k, e) for k, e in enumerate(vs_elems) if e.waveform]

        inj_elems = [circuit[name] for _, name, _ in t._r_inj_slots]
        self._inj_sign = np.array(
            [-1.0 if negate else 1.0 for _, _, negate in t._r_inj_slots]
        )
        self._inj_val = np.array([e.dc for e in inj_elems], dtype=float)
        self._inj_wave = [(k, e) for k, e in enumerate(inj_elems) if e.waveform]

        # Inductor companion: v_new (+ v_prev) = r_eq * (i_new - i_prev).
        inductance = np.array(
            [circuit[t._vc_dc_slots[i][1]].inductance for i in ind], dtype=float
        )
        self._ind_req = (2.0 * inductance if trap else inductance) / dt
        self._ind_pos = t._r_vc_pos[ind]
        self._ind_p = t._vc_p[ind]
        self._ind_n = t._vc_n[ind]
        self._ind_k = t._rr[self._ind_pos]
        self._ind_v = np.zeros(len(ind))
        self._ind_rhs = np.zeros(len(ind))

        # Capacitor companions at the t=0 operating point: explicit
        # capacitors and MOSFET capacitances, skipping empty ones.
        caps = []
        for i, j, name, kind in t._cap_terms:
            if kind < 0:
                c = circuit[name].capacitance
            else:
                c = getattr(initial.device_ops[name], _CAP_KINDS[kind])
            if c > 0.0:
                caps.append((i, j, c))
        cap_c = np.array([c for _, _, c in caps], dtype=float)
        self._cap_g = (2.0 * cap_c if trap else cap_c) / dt
        self._cap_neg_g = -self._cap_g
        self._cap_a = np.asarray([_ext(i, n) for i, _, _ in caps], dtype=np.intp)
        self._cap_b = np.asarray([_ext(j, n) for _, j, _ in caps], dtype=np.intp)
        self._cap_current = np.zeros(len(caps))
        self._cap_ieq = np.zeros(len(caps))

        # Appended entries: inductor diagonals, then capacitor stamps in
        # the order of stamp_conductance; residual rows +cur / -cur.
        j_rows = list(self._ind_k)
        j_cols = list(self._ind_k)
        j_vals = list(-self._ind_req)
        r_rows, r_src, r_sign = [], [], []
        for k, ((i, j, _), g) in enumerate(zip(caps, self._cap_g.tolist())):
            for row, col, value in ((i, i, g), (j, j, g)):
                if row != GROUND:
                    j_rows.append(row)
                    j_cols.append(col)
                    j_vals.append(value)
            if i != GROUND and j != GROUND:
                j_rows += [i, j]
                j_cols += [j, i]
                j_vals += [-g, -g]
            for row, sign in ((i, 1.0), (j, -1.0)):
                if row != GROUND:
                    r_rows.append(row)
                    r_src.append(k)
                    r_sign.append(sign)
        self._jflat = np.concatenate(
            [
                t._jr * n + t._jc,
                np.asarray(j_rows, dtype=np.intp) * n
                + np.asarray(j_cols, dtype=np.intp),
            ]
        )
        self._jv = np.concatenate([bound._jv, np.asarray(j_vals, dtype=float)])
        self._rr = np.concatenate([t._rr, np.asarray(r_rows, dtype=np.intp)])
        self._rv = np.zeros(len(self._rr))
        self._rv[t._r_inj_pos] = self._inj_sign * self._inj_val
        self._cap_rpos = len(t._rr) + np.arange(len(r_rows))
        self._cap_rsrc = np.asarray(r_src, dtype=np.intp)
        self._cap_rsign = np.asarray(r_sign, dtype=float)

        self._xe[:n] = initial.x
        self._cap_dv = self._xe[self._cap_a] - self._xe[self._cap_b]

    def begin_step(self, time: float, x_prev: np.ndarray) -> None:
        """Refresh the time-dependent values for the step ending at ``time``."""
        t = self._t
        if self._switches:
            g = np.array([1.0 / sw.resistance_at(time) for sw in self._switches])
            self._jv[self._j_sw_pos] = self._j_sw_sign * g[self._j_sw_src]
            self._pair_coeff[self._pair_sw] = g
        for k, element in self._vs_wave:
            self._vs_val[k] = element.value_at(time)
        if self._inj_wave:
            for k, element in self._inj_wave:
                self._inj_val[k] = element.value_at(time)
            self._rv[t._r_inj_pos] = self._inj_sign * self._inj_val
        if len(self._ind_k):
            self._ind_rhs = self._ind_req * x_prev[self._ind_k]
            if self._trap:
                self._ind_rhs = self._ind_rhs + self._ind_v
        self._cap_ieq = self._cap_neg_g * self._cap_dv
        if self._trap:
            self._cap_ieq = self._cap_ieq - self._cap_current

    def _devices(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """MOSFET drain currents and conductances at ``x``.

        The compact model runs on Python floats, exactly as the walk called
        it.  A step's first iterate is the previous step's converged
        solution, the very array its last check assembled at; the step
        loop never writes into an iterate, so that evaluation is reused.
        """
        if x is not self._devices_x:
            xl = x.tolist() + [0.0]
            ids_list = []
            conductances = []
            for params, w, l, mult, d, g_, s, b in self._mos_args:
                xs = xl[s]
                ids, gm, gds, gmb = dc_current(
                    params, w, l, xl[g_] - xs, xl[d] - xs, xl[b] - xs
                )
                gm *= mult
                gds *= mult
                gmb *= mult
                ids_list.append(ids * mult)
                conductances += (gm, gds, gmb, gm + gds + gmb)
            self._devices_at = np.array(ids_list), np.array(conductances)
            self._devices_x = x
        return self._devices_at

    def assemble(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Jacobian and residual of the step's Newton system at ``x``."""
        t = self._t
        n = self.size
        xe = self._xe
        xe[:n] = x
        ids, conductances = self._devices(x)

        jv = self._jv
        if len(ids):
            jv[t._j_mos_pos] = t._j_mos_sign * conductances[self._j_mos_val]
        jac = np.bincount(self._jflat, jv, n * n).reshape(n, n)

        rv = self._rv
        if len(t._r_pair_pos):
            cur = self._pair_coeff * (xe[t._pair_a] - xe[t._pair_b])
            rv[t._r_pair_pos] = t._r_pair_sign * cur[t._r_pair_src]
        if len(t._r_br_pos):
            rv[t._r_br_pos] = t._r_br_sign * x[t._r_br_k]
        if len(self._vs_pos):
            rv[self._vs_pos] = (xe[self._vs_p] - xe[self._vs_n]) - self._vs_val
        if len(self._ind_pos):
            rv[self._ind_pos] = (
                (xe[self._ind_p] - xe[self._ind_n]) - self._ind_req * x[self._ind_k]
            ) + self._ind_rhs
        if len(t._r_vg_pos):
            rv[t._r_vg_pos] = (xe[t._vg_op] - xe[t._vg_on]) - self._vg_gain * (
                xe[t._vg_cp] - xe[t._vg_cn]
            )
        if len(ids):
            rv[t._r_mos_pos] = t._r_mos_sign * ids[t._r_mos_dev]
        if len(self._cap_rpos):
            cur = self._cap_g * (xe[self._cap_a] - xe[self._cap_b]) + self._cap_ieq
            rv[self._cap_rpos] = self._cap_rsign * cur[self._cap_rsrc]
        return jac, np.bincount(self._rr, rv, n)

    def end_step(self, x: np.ndarray) -> None:
        """Advance the companion history to the accepted solution ``x``."""
        xe = self._xe
        xe[: self.size] = x
        dv = xe[self._cap_a] - xe[self._cap_b]
        charge = self._cap_g * (dv - self._cap_dv)
        self._cap_current = charge - self._cap_current if self._trap else charge
        self._cap_dv = dv
        self._ind_v = xe[self._ind_p] - xe[self._ind_n]


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

    layout = layout_for(circuit)
    if initial is None:
        bound, initial = _initial_dc(circuit)
    else:
        bound = bind_template(circuit)
    x = initial.x.copy()
    if len(x) != layout.size:
        raise AnalysisError("initial DC solution does not match circuit")
    program = _StepProgram(bound, circuit, initial, dt, method)

    n_steps = int(round(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    nets = list(dict.fromkeys(record if record is not None else layout.nets))
    indices = [layout.index(net) for net in nets]
    columns = np.asarray(
        [c for c, idx in enumerate(indices) if idx != GROUND], dtype=np.intp
    )
    take = np.asarray([idx for idx in indices if idx != GROUND], dtype=np.intp)
    traces = np.zeros((len(nets), n_steps + 1))
    traces[columns, 0] = x[take]

    n_nodes = len(layout.nets)
    solve = np.linalg.solve
    for step in range(1, n_steps + 1):
        t = times[step]
        program.begin_step(t, x)
        for _ in range(_MAX_NEWTON):
            jac, resid = program.assemble(x)
            if np.abs(resid).max() < _ABS_TOL * max(1.0, float(np.abs(x).max())):
                break
            try:
                dx = solve(jac, -resid)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"transient Newton singular at t={t:.3e}s"
                ) from exc
            limit = np.abs(dx[:n_nodes]).max() if n_nodes else 0.0
            if limit > _VSTEP_LIMIT:
                dx *= _VSTEP_LIMIT / limit
            x = x + dx
        else:
            raise ConvergenceError(f"transient Newton did not converge at t={t:.3e}s")
        program.end_step(x)
        traces[columns, step] = x[take]

    return TransientResult(
        time=times, waveforms={net: traces[c] for c, net in enumerate(nets)}
    )
