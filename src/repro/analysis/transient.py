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
conductances and the waveform-source values change.  The capacitor
companions join the DC program's fused residual layout as affine currents
``g * (v_i - v_j) + ieq``; the inductor companions keep their history term
``(v - r_eq * i) + rhs``.  Each Newton iterate builds its residual with
one gather pair, one affine map, one signed gather and one
``np.bincount``, and only an iterate that fails the convergence check
builds a jacobian, with one more ``np.bincount`` over the DC program's
entries, the inductor companion diagonals and the capacitor companion
stamps.  ``np.bincount`` adds its weights in input order, so every cell
receives the same float additions, in the same order, as in the
per-element walk with ``isinstance`` dispatch and scalar ``+=`` stamps:
the waveforms are bit-identical to that walk, which
``tests/analysis/transient_reference.py`` keeps as the oracle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.analysis.dc import DcSolution, _abs_max, _limit_step, _within, solve_dc
from repro.analysis.mna import GROUND
from repro.analysis.template import (
    _BUF_AFF,
    _BUF_J,
    _BUF_VDC,
    _CAP_KINDS,
    _OP_DC,
    _OP_SW_INV,
    BoundMna,
    FusedResidual,
    assemble_jacobian,
    bind_template,
    template_for,
)
from repro.circuit.elements import CurrentSource, VoltageSource
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ConvergenceError
from repro.tech.mosfet import device_currents

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
    """One run's Newton system, on the bound stamp program's fused layout.

    The residual is the DC program's fused layout with one affine current
    per capacitor companion appended (``C = g``, ``E = ieq``); the jacobian
    entries are the DC program's followed by the inductor companion
    diagonals and the capacitor companion stamps, in netlist order — the
    order the element walk applied them.  The switch conductances and
    waveform-source values of every step of the run are tabulated once,
    from the same calls the walk makes per step.  ``begin_step`` writes
    the step's row where it differs from the previous step's and refreshes
    what depends on the accepted previous solution (companion history);
    ``residual`` evaluates one Newton iterate and ``jacobian`` the system
    at that iterate; ``end_step`` advances the capacitor and inductor
    history.
    """

    def __init__(
        self,
        bound: BoundMna,
        circuit: Circuit,
        initial: DcSolution,
        dt: float,
        method: str,
        times: np.ndarray,
    ):
        t = bound.template
        n = t.size
        self._trap = trap = method == "trap"
        self._t = t
        self._devices = bound._devices
        self._devices_x = None
        self._devices_at: tuple[list, list, float] = ([], [], 1.0)
        self._cond: list[float] = []
        #: ``max(1.0, max |x|)`` of the last :meth:`residual` iterate, the
        #: scale of its convergence tolerance.
        self.x_scale = 1.0

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
        cap_a = np.asarray([_ext(i, n) for i, _, _ in caps], dtype=np.intp)
        cap_b = np.asarray([_ext(j, n) for _, j, _ in caps], dtype=np.intp)
        n_aff = len(t._aff_a)
        self._caps = slice(n_aff, n_aff + len(caps))
        self._cap_current = np.zeros(len(caps))

        # The fused residual: the DC layout, then per capacitor
        # resid[i] += cur and resid[j] -= cur.
        r_rows, r_src, r_sign = [], [], []
        for k, (i, j, _) in enumerate(caps):
            for row, sign in ((i, 1.0), (j, -1.0)):
                if row != GROUND:
                    r_rows.append(row)
                    r_src.append(t._cur_off + n_aff + k)
                    r_sign.append(sign)
        self._fused = fused = FusedResidual(
            t,
            np.concatenate([t._aff_a, cap_a]),
            np.concatenate([t._aff_b, cap_b]),
            np.concatenate([t._rr, np.asarray(r_rows, dtype=np.intp)]),
            np.concatenate([t._r_sign, np.asarray(r_sign, dtype=float)]),
            np.concatenate([t._r_src, np.asarray(r_src, dtype=np.intp)]),
        )
        fused.c[:n_aff] = bound._fused.c
        fused.c[self._caps] = self._cap_g
        fused.vcvs = bound._fused.vcvs

        # Time-dependent values of the DC program, found through the
        # template's value slots: switch conductances and waveform-source
        # values.  Every source starts at its DC value.
        switches, aff_sw, j_sw, vs_wave, inj_wave = [], [], [], [], []
        for element, (op, targets) in zip(circuit.elements, t.slots):
            if op == _OP_SW_INV:
                for buf, pos, negate in targets:
                    if buf == _BUF_J:
                        j_sw.append((pos, len(switches), -1.0 if negate else 1.0))
                    elif buf == _BUF_AFF:
                        aff_sw.append(pos)
                switches.append(element)
            elif op == _OP_DC:
                # A source's one slot: a voltage source's constraint
                # subtracts its value (E = -value), a current source injects.
                ((buf, pos, _),) = targets
                if buf == _BUF_VDC:
                    aff = int(t._vs_aff[pos])
                    fused.e[aff] = -element.dc
                    if element.waveform:
                        vs_wave.append((aff, element))
                else:
                    fused.inj[pos] = element.dc
                    if element.waveform:
                        inj_wave.append((pos, element))
        self._aff_sw = np.asarray(aff_sw, dtype=np.intp)
        self._j_sw_pos = np.asarray([p for p, _, _ in j_sw], dtype=np.intp)
        j_sw_src = np.asarray([s for _, s, _ in j_sw], dtype=np.intp)
        j_sw_sign = np.asarray([g for _, _, g in j_sw], dtype=float)
        self._vs_aff = np.asarray([aff for aff, _ in vs_wave], dtype=np.intp)
        self._inj_k = np.asarray([k for k, _ in inj_wave], dtype=np.intp)

        # Every step's values, one row per switch, voltage source and
        # current source, from the calls the walk made per step; then one
        # update per step whose values differ from the step before (by
        # bits; the first step's always counts).
        steps = times[1:]
        n_steps, n_sw, n_vs = len(steps), len(switches), len(vs_wave)
        table = np.empty((n_sw + n_vs + len(inj_wave), n_steps))
        for k, sw in enumerate(switches):
            conductances = (1.0 / sw.resistance_at(tm) for tm in steps)
            table[k] = np.fromiter(conductances, float, n_steps)
        for k, (_, e) in enumerate(vs_wave, n_sw):
            values = (-e.value_at(tm) for tm in steps)
            table[k] = np.fromiter(values, float, n_steps)
        for k, (_, e) in enumerate(inj_wave, n_sw + n_vs):
            values = (e.value_at(tm) for tm in steps)
            table[k] = np.fromiter(values, float, n_steps)
        bits = table.view(np.int64)
        changed = np.flatnonzero(np.any(bits[:, 1:] != bits[:, :-1], axis=0)) + 1
        #: Step index (from 0) -> the switch jacobian entries, switch
        #: conductances, voltage-source ``E`` values and injected currents.
        self._updates = {}
        for row in [0] + changed.tolist():
            column = table[:, row].copy()
            g = column[:n_sw]
            self._updates[row] = (
                j_sw_sign * g[j_sw_src],
                g,
                column[n_sw : n_sw + n_vs],
                column[n_sw + n_vs :],
            )

        # Inductor companion: v_new (+ v_prev) = r_eq * (i_new - i_prev).
        inductance = np.array(
            [circuit[name].inductance for name in t._ind_names], dtype=float
        )
        self._ind_req = (2.0 * inductance if trap else inductance) / dt
        self._ind_aff = t._ind_aff
        self._ind_k = t._ind_k
        self._ind_v = np.zeros(len(inductance))
        if len(inductance):
            fused.inductor = (t._ind_aff, t._ind_k, self._ind_req)

        # Jacobian: the DC entries, the inductor diagonals, then the
        # capacitor stamps in the order of the walk's conductance stamp.
        j_rows = t._ind_k.tolist()
        j_cols = list(j_rows)
        j_vals = (-self._ind_req).tolist()
        for (i, j, _), g in zip(caps, self._cap_g.tolist()):
            for row, value in ((i, g), (j, g)):
                if row != GROUND:
                    j_rows.append(row)
                    j_cols.append(row)
                    j_vals.append(value)
            if i != GROUND and j != GROUND:
                j_rows += [i, j]
                j_cols += [j, i]
                j_vals += [-g, -g]
        self._jflat = np.concatenate(
            [
                t._jflat,
                np.asarray(j_rows, dtype=np.intp) * n
                + np.asarray(j_cols, dtype=np.intp),
            ]
        )
        self._jv = np.concatenate([bound._jv, np.asarray(j_vals, dtype=float)])

        xe = np.append(initial.x, 0.0)
        self._cap_dv = xe[cap_a] - xe[cap_b]

    def begin_step(self, step: int, x_prev: np.ndarray) -> None:
        """Refresh the time-dependent values for step ``step`` (from 1)."""
        fused = self._fused
        update = self._updates.get(step - 1)
        if update is not None:
            jv, g, e, inj = update
            self._jv[self._j_sw_pos] = jv
            fused.c[self._aff_sw] = g
            fused.e[self._vs_aff] = e
            fused.inj[self._inj_k] = inj
        if fused.inductor is not None:
            rhs = self._ind_req * x_prev[self._ind_k]
            fused.ind_rhs = rhs + self._ind_v if self._trap else rhs
        ieq = fused.e[self._caps]
        np.multiply(self._cap_neg_g, self._cap_dv, out=ieq)
        if self._trap:
            ieq -= self._cap_current

    def residual(self, x: np.ndarray) -> np.ndarray:
        """The step's Newton residual at ``x``; sets :attr:`x_scale`.

        The compact model runs on Python floats, exactly as the walk called
        it.  A step's first iterate is the previous step's converged
        solution, the very array its last check evaluated; the step loop
        never writes into an iterate, so that evaluation is reused.
        """
        if x is not self._devices_x:
            xl = x.tolist()
            # max(1.0, _abs_max(xl)): C-level max and min give it exactly
            # unless a NaN (or both infinities) makes the sum NaN.
            total = sum(xl)
            if total == total:
                scale = max(1.0, max(xl, default=0.0), -min(xl, default=0.0))
            else:
                scale = max(1.0, _abs_max(xl))
            xl.append(0.0)
            ids, cond = device_currents(self._devices, xl)
            self._devices_at = ids, cond, scale
            self._devices_x = x
        ids, self._cond, self.x_scale = self._devices_at
        return self._fused(x, ids)

    def jacobian(self) -> np.ndarray:
        """The step's Newton jacobian at the last :meth:`residual` iterate."""
        return assemble_jacobian(self._t, self._jflat, self._jv, self._cond)

    def end_step(self) -> None:
        """Advance the companion history to the last residual's iterate.

        That iterate is the accepted solution, and its node-voltage
        differences are already in the fused residual's ``diff``.
        """
        diff = self._fused.diff
        dv = diff[self._caps]
        charge = self._cap_g * (dv - self._cap_dv)
        self._cap_current = charge - self._cap_current if self._trap else charge
        self._cap_dv = dv
        if self._fused.inductor is not None:
            self._ind_v = diff[self._ind_aff]


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

    # The topology's layout, viewed through the caller's circuit so that
    # an unknown ``record`` net names it (the t=0 bind names its frozen
    # copy) and is refused before the DC solve.
    layout = template_for(circuit).layout.with_circuit(circuit)
    nets = list(dict.fromkeys(record if record is not None else layout.nets))
    indices = [layout.index(net) for net in nets]
    if initial is None:
        bound, initial = _initial_dc(circuit)
    else:
        bound = bind_template(circuit)
    x = initial.x.copy()
    if len(x) != layout.size:
        raise AnalysisError("initial DC solution does not match circuit")
    n_steps = int(round(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    program = _StepProgram(bound, circuit, initial, dt, method, times)
    columns = np.asarray(
        [c for c, idx in enumerate(indices) if idx != GROUND], dtype=np.intp
    )
    take = np.asarray([idx for idx in indices if idx != GROUND], dtype=np.intp)
    traces = np.zeros((len(nets), n_steps + 1))
    traces[columns, 0] = x[take]

    n_nodes = len(layout.nets)
    solve = np.linalg.solve
    for step in range(1, n_steps + 1):
        program.begin_step(step, x)
        for _ in range(_MAX_NEWTON):
            resid = program.residual(x)
            if _within(resid.tolist(), _ABS_TOL * program.x_scale):
                break
            try:
                dx = solve(program.jacobian(), -resid)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"transient Newton singular at t={times[step]:.3e}s"
                ) from exc
            _limit_step(dx, n_nodes, _VSTEP_LIMIT)
            x = x + dx
        else:
            raise ConvergenceError(
                f"transient Newton did not converge at t={times[step]:.3e}s"
            )
        program.end_step()
        traces[columns, step] = x[take]

    return TransientResult(
        time=times, waveforms={net: traces[c] for c, net in enumerate(nets)}
    )
