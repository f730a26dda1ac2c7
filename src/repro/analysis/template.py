"""Compiled MNA evaluation kernels: parametric stamp templates.

The legacy DC path (:func:`repro.analysis.dc._assemble`) and small-signal
linearization (:func:`repro.analysis.smallsignal.linearize`) walk the
netlist element-by-element, dispatching on ``isinstance`` and issuing one
scalar ``+=`` per matrix stamp.  That walk runs inside *every Newton
iteration* of every DC solve — for a sizing loop that evaluates hundreds of
candidates on the same testbench topology, it is almost pure interpreter
overhead.

This module compiles a circuit *topology* once into flat stamp programs:

* :class:`MnaTemplate` (cached per :meth:`repro.circuit.netlist.Circuit.topology_key`)
  records every scalar stamp the legacy walk would emit — row/column index
  arrays in exact emission order, plus value *slots* classified by origin
  (element constants, MOSFET small-signal quantities, source injections);
* :meth:`MnaTemplate.bind` fills the constant slots from a concrete
  circuit's element values, producing a :class:`BoundMna` whose
  :meth:`~BoundMna.assemble` and :meth:`~BoundMna.linearize` rebuild the
  Newton system / small-signal matrices with a handful of vectorized
  gathers and two ``np.add.at`` scatters;
* :class:`BoundMnaStack` binds one template to a whole *corner set* of
  same-topology circuits at once — its value-slot rebinding carries a
  leading corner dimension, so a candidates×corners evaluation can fill
  every corner's small-signal system from one structure walk;
* :func:`repro.analysis.transient.simulate_transient` steps on a bound DC
  program too: it refreshes the switch and source slots per timestep and
  appends inductor and capacitor companion stamps, which is why the
  template also records the capacitances the DC program leaves open.

Value slots are pure data — ``(opcode, element name, negate)`` triples
evaluated by :func:`_slot_value` — so a compiled template is picklable.
:class:`TemplateStore` persists templates content-keyed by topology key,
letting pool/queue workers load the compiled program from disk instead of
recompiling it per synthesis job; :data:`TEMPLATE_STATS` counts compiles
and store hits so benchmarks can prove the recompile count drops to zero
on warm reruns.

**Bit-identity contract.**  The compiled assembler reproduces the legacy
walk's floating-point results *bit for bit*: the scatter arrays list every
individual ``+=`` in the same order the legacy code performs them
(``np.add.at`` applies repeated indices sequentially, in order), each slot
value is computed with the same arithmetic expression shape (negation of
the extracted value, exactly as the legacy stamps negate), and the MOSFET
compact model is evaluated by the very same
:func:`repro.tech.mosfet.dc_current` calls.  ``tests/analysis/test_template.py``
enforces the equality jacobian-by-jacobian; it is what lets
:class:`repro.synth.evaluator.HybridEvaluator` default to the compiled
kernel while keeping campaign records byte-identical to the legacy path.

Limitations: :meth:`BoundMna.linearize` does not carry noise sources (use
:func:`repro.analysis.smallsignal.linearize` for noise analysis), and
binding requires an exact topology-key match.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.mna import GROUND, MnaLayout, layout_for
from repro.analysis.smallsignal import LinearizedCircuit
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
from repro.errors import AnalysisError
from repro.obs.metrics import REGISTRY, CounterView
from repro.tech.mosfet import dc_current

#: MOSFET DC slot kinds (see ``kindvals`` in :meth:`BoundMna.assemble`).
_KIND_GM, _KIND_GDS, _KIND_GMB, _KIND_GSUM = 0, 1, 2, 3

#: MOSFET small-signal capacitance slot kinds, in compact-model order.
_CAP_KINDS = ("cgs", "cgd", "cgb", "cdb", "csb")

# ---------------------------------------------------------------------------
# Constant-slot opcodes.
#
# Every non-MOSFET value slot reduces to "extract one element attribute,
# optionally negated".  Recording slots as (opcode, name, negate) data —
# instead of closures — keeps the compiled template picklable, which is
# what makes cross-process template persistence possible.  Negation (not a
# sign multiply) reproduces the legacy lambdas' ``-value`` expressions
# bit-for-bit.
# ---------------------------------------------------------------------------

_OP_ONE = 0  # 1.0 (branch-row unit stamps)
_OP_RES_INV = 1  # 1 / resistance
_OP_SW_INV = 2  # 1 / resistance_at(0.0)
_OP_CAP = 3  # capacitance
_OP_IND = 4  # inductance
_OP_GAIN = 5  # VCVS gain
_OP_GM = 6  # VCCS transconductance
_OP_DC = 7  # independent-source DC value
_OP_ZERO = 8  # 0.0 (inductor DC short constraint)


def _slot_value(circuit: Circuit, op: int, name: str | None) -> float:
    """Evaluate one constant-slot opcode against a concrete circuit."""
    if op == _OP_ONE:
        return 1.0
    if op == _OP_RES_INV:
        return 1.0 / circuit[name].resistance
    if op == _OP_SW_INV:
        return 1.0 / circuit[name].resistance_at(0.0)
    if op == _OP_CAP:
        return circuit[name].capacitance
    if op == _OP_IND:
        return circuit[name].inductance
    if op == _OP_GAIN:
        return circuit[name].gain
    if op == _OP_GM:
        return circuit[name].gm
    if op == _OP_DC:
        return circuit[name].dc
    if op == _OP_ZERO:
        return 0.0
    raise AnalysisError(f"unknown template slot opcode {op}")  # pragma: no cover


def _eval_slots(
    circuit: Circuit, slots: tuple[tuple[int, str | None, bool], ...]
) -> list[float]:
    """Evaluate a slot table; ``negate`` replays the legacy ``-value``."""
    out = []
    for op, name, negate in slots:
        value = _slot_value(circuit, op, name)
        out.append(-value if negate else value)
    return out


class _Coo:
    """Ordered COO recorder: one entry per scalar ``+=`` of a legacy walk.

    ``pos`` of an appended entry is its index in the final value buffer;
    callers remember positions of non-constant slots so they can be
    refreshed each iteration.
    """

    def __init__(self):
        self.rows: list[int] = []
        self.cols: list[int] = []
        #: Constant-slot positions and their (opcode, name, negate) slots.
        self.const_pos: list[int] = []
        self.const_slots: list[tuple[int, str | None, bool]] = []

    def append(self, row: int, col: int) -> int:
        self.rows.append(row)
        self.cols.append(col)
        return len(self.rows) - 1

    def append_const(
        self, row: int, col: int, op: int, name: str | None = None,
        negate: bool = False,
    ) -> None:
        pos = self.append(row, col)
        self.const_pos.append(pos)
        self.const_slots.append((op, name, negate))

    def __len__(self) -> int:
        return len(self.rows)


class _Rows:
    """Ordered row-only recorder for residual / RHS vectors."""

    def __init__(self):
        self.rows: list[int] = []

    def append(self, row: int) -> int:
        self.rows.append(row)
        return len(self.rows) - 1

    def __len__(self) -> int:
        return len(self.rows)


class MnaTemplate:
    """Compiled stamp structure for one circuit topology.

    Build via :func:`template_for` (cached) or directly from a prototype
    circuit; call :meth:`bind` with any same-topology circuit to obtain a
    value-carrying :class:`BoundMna`.  Instances are pure data (index
    arrays plus opcode slot tables) and therefore picklable — see
    :class:`TemplateStore`.
    """

    def __init__(self, circuit: Circuit):
        self.key = circuit.topology_key()
        self.layout = layout_for(circuit)
        layout = self.layout
        n = layout.size
        self.size = n
        self.n_nodes = len(layout.nets)
        #: Ground maps to the extra slot ``n`` of the extended vector.
        ground_slot = n

        def xi(net: str) -> int:
            idx = layout.index(net)
            return ground_slot if idx == GROUND else idx

        # -- DC Newton program -------------------------------------------
        jac = _Coo()
        res = _Rows()
        # Pair currents: value = coeff * (x_ext[a] - x_ext[b]).
        pair_a: list[int] = []
        pair_b: list[int] = []
        pair_slots: list[tuple[int, str | None, bool]] = []
        r_pair_pos: list[int] = []
        r_pair_src: list[int] = []
        r_pair_sign: list[float] = []
        # Branch-current references: value = sign * x[k].
        r_br_pos: list[int] = []
        r_br_k: list[int] = []
        r_br_sign: list[float] = []
        # Voltage constraints: value = (xe[p] - xe[n]) - dc * source_scale.
        vc_p: list[int] = []
        vc_n: list[int] = []
        vc_dc_slots: list[tuple[int, str | None, bool]] = []
        r_vc_pos: list[int] = []
        # VCVS constraints: value = (xe[op]-xe[on]) - gain*(xe[cp]-xe[cn]).
        vg_op: list[int] = []
        vg_on: list[int] = []
        vg_cp: list[int] = []
        vg_cn: list[int] = []
        vg_gain_slots: list[tuple[int, str | None, bool]] = []
        r_vg_pos: list[int] = []
        # Source injections: value = signed_dc * source_scale.
        r_inj_pos: list[int] = []
        r_inj_slots: list[tuple[int, str | None, bool]] = []
        # Capacitances the DC program leaves open, in netlist order:
        # (i, j, element name, kind) — kind -1 for a capacitor, else an
        # index into _CAP_KINDS.  The transient companion stamps use them.
        cap_terms: list[tuple[int, int, str, int]] = []
        # MOSFET slots.
        mos_names: list[str] = []
        mos_xe: list[tuple[int, int, int, int]] = []  # (d, g, s, b) ext slots
        j_mos_pos: list[int] = []
        j_mos_dev: list[int] = []
        j_mos_kind: list[int] = []
        j_mos_sign: list[float] = []
        r_mos_pos: list[int] = []
        r_mos_dev: list[int] = []
        r_mos_sign: list[float] = []

        def emit_pair_current(
            a: int, b: int, op: int, name: str, node_i: int, node_j: int
        ):
            """cur = coeff*(xe[a]-xe[b]); resid[i] += cur; resid[j] -= cur."""
            pair_a.append(a)
            pair_b.append(b)
            pair_slots.append((op, name, False))
            src = len(pair_a) - 1
            for node, sign in ((node_i, +1.0), (node_j, -1.0)):
                if node == GROUND:
                    continue
                r_pair_pos.append(res.append(node))
                r_pair_src.append(src)
                r_pair_sign.append(sign)

        def emit_conductance(i: int, j: int, op: int, name: str):
            """Replay :func:`repro.analysis.mna.stamp_conductance`."""
            if i != GROUND:
                jac.append_const(i, i, op, name)
            if j != GROUND:
                jac.append_const(j, j, op, name)
            if i != GROUND and j != GROUND:
                jac.append_const(i, j, op, name, negate=True)
                jac.append_const(j, i, op, name, negate=True)

        def emit_branch_rows(p: int, nn: int, k: int):
            """Voltage-source-style jac cross terms + resid branch currents."""
            if p != GROUND:
                jac.append_const(p, k, _OP_ONE)
                jac.append_const(k, p, _OP_ONE)
            if nn != GROUND:
                jac.append_const(nn, k, _OP_ONE, negate=True)
                jac.append_const(k, nn, _OP_ONE, negate=True)
            if p != GROUND:
                r_br_pos.append(res.append(p))
                r_br_k.append(k)
                r_br_sign.append(+1.0)
            if nn != GROUND:
                r_br_pos.append(res.append(nn))
                r_br_k.append(k)
                r_br_sign.append(-1.0)

        for element in circuit:
            name = element.name
            if isinstance(element, Resistor):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_conductance(i, j, _OP_RES_INV, name)
                emit_pair_current(
                    xi(element.n1), xi(element.n2), _OP_RES_INV, name, i, j
                )
            elif isinstance(element, Switch):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_conductance(i, j, _OP_SW_INV, name)
                emit_pair_current(
                    xi(element.n1), xi(element.n2), _OP_SW_INV, name, i, j
                )
            elif isinstance(element, Capacitor):
                # Open in DC.
                cap_terms.append(
                    (layout.index(element.n1), layout.index(element.n2), name, -1)
                )
            elif isinstance(element, CurrentSource):
                p = layout.index(element.positive)
                nn = layout.index(element.negative)
                if p != GROUND:
                    r_inj_pos.append(res.append(p))
                    r_inj_slots.append((_OP_DC, name, False))
                if nn != GROUND:
                    r_inj_pos.append(res.append(nn))
                    r_inj_slots.append((_OP_DC, name, True))
            elif isinstance(element, VoltageSource):
                p = layout.index(element.positive)
                nn = layout.index(element.negative)
                k = layout.branch(name)
                emit_branch_rows(p, nn, k)
                vc_p.append(xi(element.positive))
                vc_n.append(xi(element.negative))
                vc_dc_slots.append((_OP_DC, name, False))
                r_vc_pos.append(res.append(k))
            elif isinstance(element, Vcvs):
                op_ = layout.index(element.out_positive)
                on_ = layout.index(element.out_negative)
                cp = layout.index(element.ctrl_positive)
                cn = layout.index(element.ctrl_negative)
                k = layout.branch(name)
                # stamp_vcvs order: out rows, then the gain row entries.
                if op_ != GROUND:
                    jac.append_const(op_, k, _OP_ONE)
                    jac.append_const(k, op_, _OP_ONE)
                if on_ != GROUND:
                    jac.append_const(on_, k, _OP_ONE, negate=True)
                    jac.append_const(k, on_, _OP_ONE, negate=True)
                if cp != GROUND:
                    jac.append_const(k, cp, _OP_GAIN, name, negate=True)
                if cn != GROUND:
                    jac.append_const(k, cn, _OP_GAIN, name)
                if op_ != GROUND:
                    r_br_pos.append(res.append(op_))
                    r_br_k.append(k)
                    r_br_sign.append(+1.0)
                if on_ != GROUND:
                    r_br_pos.append(res.append(on_))
                    r_br_k.append(k)
                    r_br_sign.append(-1.0)
                vg_op.append(xi(element.out_positive))
                vg_on.append(xi(element.out_negative))
                vg_cp.append(xi(element.ctrl_positive))
                vg_cn.append(xi(element.ctrl_negative))
                vg_gain_slots.append((_OP_GAIN, name, False))
                r_vg_pos.append(res.append(k))
            elif isinstance(element, Vccs):
                op_ = layout.index(element.out_positive)
                on_ = layout.index(element.out_negative)
                cp = layout.index(element.ctrl_positive)
                cn = layout.index(element.ctrl_negative)
                for row, sign in ((op_, +1.0), (on_, -1.0)):
                    if row == GROUND:
                        continue
                    if cp != GROUND:
                        jac.append_const(row, cp, _OP_GM, name, negate=sign < 0)
                    if cn != GROUND:
                        jac.append_const(row, cn, _OP_GM, name, negate=sign > 0)
                emit_pair_current(
                    xi(element.ctrl_positive),
                    xi(element.ctrl_negative),
                    _OP_GM,
                    name,
                    op_,
                    on_,
                )
            elif isinstance(element, Inductor):
                p = layout.index(element.n1)
                nn = layout.index(element.n2)
                k = layout.branch(name)
                emit_branch_rows(p, nn, k)
                vc_p.append(xi(element.n1))
                vc_n.append(xi(element.n2))
                vc_dc_slots.append((_OP_ZERO, name, False))  # DC short
                r_vc_pos.append(res.append(k))
            elif isinstance(element, Mosfet):
                d = layout.index(element.drain)
                g_ = layout.index(element.gate)
                s = layout.index(element.source)
                b = layout.index(element.bulk)
                dev = len(mos_names)
                mos_names.append(name)
                mos_xe.append(
                    (
                        xi(element.drain),
                        xi(element.gate),
                        xi(element.source),
                        xi(element.bulk),
                    )
                )
                for node, sign in ((d, +1.0), (s, -1.0)):
                    if node == GROUND:
                        continue
                    r_mos_pos.append(res.append(node))
                    r_mos_dev.append(dev)
                    r_mos_sign.append(sign)
                for row, sign in ((d, +1.0), (s, -1.0)):
                    if row == GROUND:
                        continue
                    for col, kind, ks in (
                        (g_, _KIND_GM, sign),
                        (d, _KIND_GDS, sign),
                        (b, _KIND_GMB, sign),
                        (s, _KIND_GSUM, -sign),
                    ):
                        if col == GROUND:
                            continue
                        j_mos_pos.append(jac.append(row, col))
                        j_mos_dev.append(dev)
                        j_mos_kind.append(kind)
                        j_mos_sign.append(ks)
                for kind, (t1, t2) in enumerate(
                    ((g_, s), (g_, d), (g_, b), (d, b), (s, b))
                ):
                    cap_terms.append((t1, t2, name, kind))
            else:
                raise AnalysisError(
                    f"element type {type(element).__name__} not supported "
                    "by the compiled DC template"
                )

        asarray = np.asarray
        self._jr = asarray(jac.rows, dtype=np.intp)
        self._jc = asarray(jac.cols, dtype=np.intp)
        self._j_const_pos = asarray(jac.const_pos, dtype=np.intp)
        self._j_const_slots = tuple(jac.const_slots)
        self._rr = asarray(res.rows, dtype=np.intp)
        self._pair_a = asarray(pair_a, dtype=np.intp)
        self._pair_b = asarray(pair_b, dtype=np.intp)
        self._pair_slots = tuple(pair_slots)
        self._r_pair_pos = asarray(r_pair_pos, dtype=np.intp)
        self._r_pair_src = asarray(r_pair_src, dtype=np.intp)
        self._r_pair_sign = asarray(r_pair_sign, dtype=float)
        self._r_br_pos = asarray(r_br_pos, dtype=np.intp)
        self._r_br_k = asarray(r_br_k, dtype=np.intp)
        self._r_br_sign = asarray(r_br_sign, dtype=float)
        self._vc_p = asarray(vc_p, dtype=np.intp)
        self._vc_n = asarray(vc_n, dtype=np.intp)
        self._vc_dc_slots = tuple(vc_dc_slots)
        self._r_vc_pos = asarray(r_vc_pos, dtype=np.intp)
        self._vg_op = asarray(vg_op, dtype=np.intp)
        self._vg_on = asarray(vg_on, dtype=np.intp)
        self._vg_cp = asarray(vg_cp, dtype=np.intp)
        self._vg_cn = asarray(vg_cn, dtype=np.intp)
        self._vg_gain_slots = tuple(vg_gain_slots)
        self._r_vg_pos = asarray(r_vg_pos, dtype=np.intp)
        self._r_inj_pos = asarray(r_inj_pos, dtype=np.intp)
        self._r_inj_slots = tuple(r_inj_slots)
        self.mos_names = tuple(mos_names)
        self._mos_xe = mos_xe
        self._j_mos_pos = asarray(j_mos_pos, dtype=np.intp)
        self._j_mos_dev = asarray(j_mos_dev, dtype=np.intp)
        self._j_mos_kind = asarray(j_mos_kind, dtype=np.intp)
        self._j_mos_sign = asarray(j_mos_sign, dtype=float)
        self._r_mos_pos = asarray(r_mos_pos, dtype=np.intp)
        self._r_mos_dev = asarray(r_mos_dev, dtype=np.intp)
        self._r_mos_sign = asarray(r_mos_sign, dtype=float)
        self._cap_terms = tuple(cap_terms)

        self._compile_linear(circuit)

    # -- small-signal program --------------------------------------------

    def _compile_linear(self, circuit: Circuit) -> None:
        """Record the :func:`~repro.analysis.smallsignal.linearize` walk."""
        layout = self.layout
        g = _Coo()
        c = _Coo()
        g_mos_pos: list[int] = []
        g_mos_dev: list[int] = []
        g_mos_kind: list[int] = []  # _KIND_GM / _KIND_GDS / _KIND_GMB / _KIND_GSUM
        g_mos_sign: list[float] = []
        c_mos_pos: list[int] = []
        c_mos_dev: list[int] = []
        c_mos_kind: list[int] = []  # index into _CAP_KINDS
        c_mos_sign: list[float] = []
        #: (branch-or-node index, sign, element name, 'branch'|'node') for b_ac.
        b_ac_slots: list[tuple[int, float, str]] = []

        def emit_sym(coo: _Coo, i: int, j: int, op: int, name: str) -> None:
            """Symmetric two-terminal stamp (conductance / capacitance)."""
            if i != GROUND:
                coo.append_const(i, i, op, name)
            if j != GROUND:
                coo.append_const(j, j, op, name)
            if i != GROUND and j != GROUND:
                coo.append_const(i, j, op, name, negate=True)
                coo.append_const(j, i, op, name, negate=True)

        def emit_mos_g(row: int, col: int, dev: int, kind: int, sign: float):
            g_mos_pos.append(g.append(row, col))
            g_mos_dev.append(dev)
            g_mos_kind.append(kind)
            g_mos_sign.append(sign)

        def emit_mos_vccs(op_: int, on_: int, cp: int, cn: int, dev: int, kind: int):
            """Replay stamp_transconductance with a device-slot value."""
            for row, sign in ((op_, +1.0), (on_, -1.0)):
                if row == GROUND:
                    continue
                if cp != GROUND:
                    emit_mos_g(row, cp, dev, kind, sign)
                if cn != GROUND:
                    emit_mos_g(row, cn, dev, kind, -sign)

        dev_of = {nm: i for i, nm in enumerate(self.mos_names)}

        for element in circuit:
            name = element.name
            if isinstance(element, Resistor):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_sym(g, i, j, _OP_RES_INV, name)
            elif isinstance(element, Switch):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_sym(g, i, j, _OP_SW_INV, name)
            elif isinstance(element, Capacitor):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_sym(c, i, j, _OP_CAP, name)
            elif isinstance(element, Inductor):
                p, nn = layout.index(element.n1), layout.index(element.n2)
                k = layout.branch(name)
                if p != GROUND:
                    g.append_const(p, k, _OP_ONE)
                    g.append_const(k, p, _OP_ONE)
                if nn != GROUND:
                    g.append_const(nn, k, _OP_ONE, negate=True)
                    g.append_const(k, nn, _OP_ONE, negate=True)
                c.append_const(k, k, _OP_IND, name, negate=True)
            elif isinstance(element, VoltageSource):
                p = layout.index(element.positive)
                nn = layout.index(element.negative)
                k = layout.branch(name)
                if p != GROUND:
                    g.append_const(p, k, _OP_ONE)
                    g.append_const(k, p, _OP_ONE)
                if nn != GROUND:
                    g.append_const(nn, k, _OP_ONE, negate=True)
                    g.append_const(k, nn, _OP_ONE, negate=True)
                b_ac_slots.append((k, +1.0, name))
            elif isinstance(element, CurrentSource):
                p = layout.index(element.positive)
                nn = layout.index(element.negative)
                if p != GROUND:
                    b_ac_slots.append((p, -1.0, name))
                if nn != GROUND:
                    b_ac_slots.append((nn, +1.0, name))
            elif isinstance(element, Vcvs):
                op_ = layout.index(element.out_positive)
                on_ = layout.index(element.out_negative)
                cp = layout.index(element.ctrl_positive)
                cn = layout.index(element.ctrl_negative)
                k = layout.branch(name)
                if op_ != GROUND:
                    g.append_const(op_, k, _OP_ONE)
                    g.append_const(k, op_, _OP_ONE)
                if on_ != GROUND:
                    g.append_const(on_, k, _OP_ONE, negate=True)
                    g.append_const(k, on_, _OP_ONE, negate=True)
                if cp != GROUND:
                    g.append_const(k, cp, _OP_GAIN, name, negate=True)
                if cn != GROUND:
                    g.append_const(k, cn, _OP_GAIN, name)
            elif isinstance(element, Vccs):
                op_ = layout.index(element.out_positive)
                on_ = layout.index(element.out_negative)
                cp = layout.index(element.ctrl_positive)
                cn = layout.index(element.ctrl_negative)
                for row, sign in ((op_, +1.0), (on_, -1.0)):
                    if row == GROUND:
                        continue
                    if cp != GROUND:
                        g.append_const(row, cp, _OP_GM, name, negate=sign < 0)
                    if cn != GROUND:
                        g.append_const(row, cn, _OP_GM, name, negate=sign > 0)
            elif isinstance(element, Mosfet):
                dev = dev_of[name]
                d = layout.index(element.drain)
                g_ = layout.index(element.gate)
                s = layout.index(element.source)
                b = layout.index(element.bulk)
                emit_mos_vccs(d, s, g_, s, dev, _KIND_GM)
                # stamp_conductance(d, s, gds)
                for row, col, sign in (
                    (d, d, +1.0),
                    (s, s, +1.0),
                    (d, s, -1.0),
                    (s, d, -1.0),
                ):
                    if row == GROUND or col == GROUND:
                        continue
                    emit_mos_g(row, col, dev, _KIND_GDS, sign)
                emit_mos_vccs(d, s, b, s, dev, _KIND_GMB)
                for kind, (t1, t2) in enumerate(
                    ((g_, s), (g_, d), (g_, b), (d, b), (s, b))
                ):
                    for row, col, sign in (
                        (t1, t1, +1.0),
                        (t2, t2, +1.0),
                        (t1, t2, -1.0),
                        (t2, t1, -1.0),
                    ):
                        if row == GROUND or col == GROUND:
                            continue
                        c_mos_pos.append(c.append(row, col))
                        c_mos_dev.append(dev)
                        c_mos_kind.append(kind)
                        c_mos_sign.append(sign)
            else:
                raise AnalysisError(
                    f"element type {type(element).__name__} not supported "
                    "by the compiled small-signal template"
                )

        asarray = np.asarray
        self._gr = asarray(g.rows, dtype=np.intp)
        self._gc = asarray(g.cols, dtype=np.intp)
        self._g_const_pos = asarray(g.const_pos, dtype=np.intp)
        self._g_const_slots = tuple(g.const_slots)
        self._cr = asarray(c.rows, dtype=np.intp)
        self._cc = asarray(c.cols, dtype=np.intp)
        self._c_const_pos = asarray(c.const_pos, dtype=np.intp)
        self._c_const_slots = tuple(c.const_slots)
        self._g_mos_pos = asarray(g_mos_pos, dtype=np.intp)
        self._g_mos_dev = asarray(g_mos_dev, dtype=np.intp)
        self._g_mos_kind = asarray(g_mos_kind, dtype=np.intp)
        self._g_mos_sign = asarray(g_mos_sign, dtype=float)
        self._c_mos_pos = asarray(c_mos_pos, dtype=np.intp)
        self._c_mos_dev = asarray(c_mos_dev, dtype=np.intp)
        self._c_mos_kind = asarray(c_mos_kind, dtype=np.intp)
        self._c_mos_sign = asarray(c_mos_sign, dtype=float)
        self._b_ac_slots = b_ac_slots

    # -- binding ----------------------------------------------------------

    def bind(self, circuit: Circuit) -> "BoundMna":
        """Fill the value slots from ``circuit`` (same topology required)."""
        if circuit.topology_key() != self.key:
            raise AnalysisError(
                f"circuit {circuit.name!r} does not match the compiled "
                "template's topology"
            )
        return BoundMna(self, circuit)

    def bind_stack(self, circuits: "list[Circuit]") -> "BoundMnaStack":
        """Bind one template to a corner set of same-topology circuits."""
        return BoundMnaStack(self, circuits)


class BoundMna:
    """A template bound to one circuit's element values.

    Holds its own value buffers, so concurrently bound instances (thread
    backend) never share mutable state; the structure arrays on the parent
    :class:`MnaTemplate` are read-only.
    """

    def __init__(self, template: MnaTemplate, circuit: Circuit):
        self.template = template
        t = template
        n_mos = max(len(t.mos_names), 1)
        # DC buffers: constants filled by rebind, MOSFET slots per call.
        self._jv = np.zeros(len(t._jr))
        self._rv = np.zeros(len(t._rr))
        self._pair_coeff = np.zeros(len(t._pair_slots))
        self._vc_dc = np.zeros(len(t._vc_dc_slots))
        self._vg_gain = np.zeros(len(t._vg_gain_slots))
        self._inj_dc = np.zeros(len(t._r_inj_slots))
        self._kindvals = np.zeros((4, n_mos))
        self._ids = np.zeros(n_mos)
        self._xe = np.empty(t.size + 1)
        # Small-signal buffers.
        self._gv = np.zeros(len(t._gr))
        self._cv = np.zeros(len(t._cr))
        self._b_ac = np.zeros(t.size, dtype=complex)
        self.rebind(circuit)

    def rebind(self, circuit: Circuit) -> "BoundMna":
        """Refresh every value slot from ``circuit`` (same topology).

        Evaluation loops that rebuild the same testbench topology per
        candidate reuse one :class:`BoundMna` and rebind it — the buffers
        and index structure carry over, only values are re-read.
        """
        t = self.template
        self.circuit = circuit
        self.layout: MnaLayout = t.layout.with_circuit(circuit)
        if len(t._j_const_pos):
            self._jv[t._j_const_pos] = _eval_slots(circuit, t._j_const_slots)
        if len(self._pair_coeff):
            self._pair_coeff[:] = _eval_slots(circuit, t._pair_slots)
        if len(self._vc_dc):
            self._vc_dc[:] = _eval_slots(circuit, t._vc_dc_slots)
        if len(self._vg_gain):
            self._vg_gain[:] = _eval_slots(circuit, t._vg_gain_slots)
        if len(self._inj_dc):
            self._inj_dc[:] = _eval_slots(circuit, t._r_inj_slots)
        self._mosfets = [circuit[nm] for nm in t.mos_names]
        #: (params, w, l, mult, d, g, s, b) per device — flat tuples so the
        #: per-iteration model loop avoids attribute chains.
        self._mos_args = [
            (e.params, e.w, e.l, e.mult) + t._mos_xe[i]
            for i, e in enumerate(self._mosfets)
        ]
        if len(t._g_const_pos):
            self._gv[t._g_const_pos] = _eval_slots(circuit, t._g_const_slots)
        if len(t._c_const_pos):
            self._cv[t._c_const_pos] = _eval_slots(circuit, t._c_const_slots)
        b_ac = self._b_ac
        b_ac[:] = 0.0
        for idx, sign, nm in t._b_ac_slots:
            if sign > 0:
                b_ac[idx] += circuit[nm].ac
            else:
                b_ac[idx] -= circuit[nm].ac
        return self

    # -- DC Newton assembly ------------------------------------------------

    def assemble(
        self, x: np.ndarray, gmin: float, source_scale: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bit-identical replacement for :func:`repro.analysis.dc._assemble`."""
        t = self.template
        n = t.size
        xe = self._xe
        xe[:n] = x
        xe[n] = 0.0

        # MOSFET small-signal quantities (same scalar model calls as legacy).
        kindvals = self._kindvals
        ids_arr = self._ids
        for dev, (params, w, l, mult, d, g_, s, b) in enumerate(self._mos_args):
            xs = xe[s]
            ids, gm, gds, gmb = dc_current(
                params, w, l, xe[g_] - xs, xe[d] - xs, xe[b] - xs
            )
            ids_arr[dev] = ids * mult
            kindvals[_KIND_GM, dev] = gm = gm * mult
            kindvals[_KIND_GDS, dev] = gds = gds * mult
            kindvals[_KIND_GMB, dev] = gmb = gmb * mult
            kindvals[_KIND_GSUM, dev] = gm + gds + gmb

        jv = self._jv
        if len(t._j_mos_pos):
            jv[t._j_mos_pos] = t._j_mos_sign * kindvals[t._j_mos_kind, t._j_mos_dev]
        jac = np.zeros((n, n))
        np.add.at(jac, (t._jr, t._jc), jv)

        rv = self._rv
        if len(t._r_pair_pos):
            cur = self._pair_coeff * (xe[t._pair_a] - xe[t._pair_b])
            rv[t._r_pair_pos] = t._r_pair_sign * cur[t._r_pair_src]
        if len(t._r_br_pos):
            rv[t._r_br_pos] = t._r_br_sign * x[t._r_br_k]
        if len(t._r_vc_pos):
            rv[t._r_vc_pos] = (xe[t._vc_p] - xe[t._vc_n]) - self._vc_dc * source_scale
        if len(t._r_vg_pos):
            rv[t._r_vg_pos] = (xe[t._vg_op] - xe[t._vg_on]) - self._vg_gain * (
                xe[t._vg_cp] - xe[t._vg_cn]
            )
        if len(t._r_inj_pos):
            rv[t._r_inj_pos] = self._inj_dc * source_scale
        if len(t._r_mos_pos):
            rv[t._r_mos_pos] = t._r_mos_sign * ids_arr[t._r_mos_dev]
        resid = np.zeros(n)
        np.add.at(resid, t._rr, rv)

        if gmin > 0.0:
            diag = np.arange(t.n_nodes)
            jac[diag, diag] += gmin
            resid[:t.n_nodes] += gmin * x[:t.n_nodes]
        return jac, resid

    def newton_solve(self, jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The DC Newton step's linear solve.

        It is the public ``np.linalg.solve``, so every solve of the stack,
        the transient's t=0 operating point included, stays visible to
        tools that wrap ``numpy.linalg.solve``.  Calling its LAPACK gufunc
        directly would save about 1 µs per 13x13 system.
        """
        return np.linalg.solve(jac, rhs)

    # -- small-signal ------------------------------------------------------

    def linearize(self, op) -> LinearizedCircuit:
        """Bit-identical, noise-free :func:`~repro.analysis.smallsignal.linearize`.

        ``op`` is the :class:`~repro.analysis.dc.DcSolution` of this bound
        circuit.  Noise sources are not carried (the compiled evaluator path
        never uses them); call the legacy ``linearize`` for noise analysis.
        """
        t = self.template
        n = t.size
        kindvals = self._kindvals
        capvals = np.zeros((len(_CAP_KINDS), max(len(self._mosfets), 1)))
        for dev, element in enumerate(self._mosfets):
            device_op = op.device_ops[element.name]
            kindvals[_KIND_GM, dev] = device_op.gm
            kindvals[_KIND_GDS, dev] = device_op.gds
            kindvals[_KIND_GMB, dev] = device_op.gmb
            for kind, attr in enumerate(_CAP_KINDS):
                capvals[kind, dev] = getattr(device_op, attr)

        gv = self._gv
        if len(t._g_mos_pos):
            gv[t._g_mos_pos] = t._g_mos_sign * kindvals[t._g_mos_kind, t._g_mos_dev]
        g_matrix = np.zeros((n, n))
        np.add.at(g_matrix, (t._gr, t._gc), gv)

        cv = self._cv
        if len(t._c_mos_pos):
            cv[t._c_mos_pos] = t._c_mos_sign * capvals[t._c_mos_kind, t._c_mos_dev]
        c_matrix = np.zeros((n, n))
        np.add.at(c_matrix, (t._cr, t._cc), cv)

        return LinearizedCircuit(
            layout=self.layout,
            g_matrix=g_matrix,
            c_matrix=c_matrix,
            b_ac=self._b_ac.copy(),
            op=op,
            noise_sources=[],
        )


class BoundMnaStack:
    """One template bound to a *corner set* of same-topology circuits.

    The value-slot rebinding carries a leading corner dimension: every
    constant buffer becomes ``(n_corners, n_slots)`` and
    :meth:`linearize` fills every corner's small-signal system in one
    pass, returning per-corner :class:`~repro.analysis.smallsignal.LinearizedCircuit`
    objects whose matrices are bit-identical to the single-corner
    :meth:`BoundMna.linearize` results (each corner's scatter replays the
    same ordered program).  DC solves stay per-corner — each corner's
    Newton/homotopy warm-start chain is an independent state machine — via
    the :attr:`corners` sub-bindings.
    """

    def __init__(
        self,
        template: MnaTemplate,
        circuits: "list[Circuit] | None" = None,
        bounds: "list[BoundMna] | None" = None,
    ):
        if (circuits is None) == (bounds is None):
            raise AnalysisError(
                "BoundMnaStack takes exactly one of circuits= or bounds="
            )
        self.template = template
        #: Per-corner :class:`BoundMna` bindings (the DC path).
        self.corners = (
            [template.bind(c) for c in circuits]
            if bounds is None
            else list(bounds)
        )
        t = template
        n_corners = len(self.corners)
        self.n_corners = n_corners
        # Corner-stacked small-signal value buffers.
        self._gv_stack = np.zeros((n_corners, len(t._gr)))
        self._cv_stack = np.zeros((n_corners, len(t._cr)))
        self._b_ac_stack = np.zeros((n_corners, t.size), dtype=complex)
        self.refresh()

    @classmethod
    def from_bounds(cls, bounds: "list[BoundMna]") -> "BoundMnaStack":
        """Stack already-bound corners (e.g. per-corner evaluator bindings)."""
        if not bounds:
            raise AnalysisError("BoundMnaStack needs at least one binding")
        return cls(bounds[0].template, bounds=bounds)

    def refresh(self) -> "BoundMnaStack":
        """Pull every corner's current slot values into the stacked buffers."""
        for c, bound in enumerate(self.corners):
            self._gv_stack[c] = bound._gv
            self._cv_stack[c] = bound._cv
            self._b_ac_stack[c] = bound._b_ac
        return self

    def rebind(self, circuits: "list[Circuit]") -> "BoundMnaStack":
        """Refresh every corner's value slots (corner-dimension rebinding)."""
        if len(circuits) != self.n_corners:
            raise AnalysisError(
                f"corner count changed: bound {self.n_corners}, "
                f"got {len(circuits)}"
            )
        for bound, circuit in zip(self.corners, circuits):
            if bound.circuit is not circuit:
                bound.rebind(circuit)
        return self.refresh()

    def linearize(self, ops) -> "list[LinearizedCircuit]":
        """Per-corner linearizations from per-corner DC solutions.

        ``ops`` is one :class:`~repro.analysis.dc.DcSolution` per corner.
        Each corner's matrices equal its :meth:`BoundMna.linearize` output
        bit for bit; the stacked buffers only batch the slot refresh.
        """
        t = self.template
        n = t.size
        if len(ops) != self.n_corners:
            raise AnalysisError(
                f"expected {self.n_corners} operating points, got {len(ops)}"
            )
        g_stack = np.zeros((self.n_corners, n, n))
        c_stack = np.zeros((self.n_corners, n, n))
        out = []
        for c, (bound, op) in enumerate(zip(self.corners, ops)):
            kindvals = bound._kindvals
            capvals = np.zeros((len(_CAP_KINDS), max(len(bound._mosfets), 1)))
            for dev, element in enumerate(bound._mosfets):
                device_op = op.device_ops[element.name]
                kindvals[_KIND_GM, dev] = device_op.gm
                kindvals[_KIND_GDS, dev] = device_op.gds
                kindvals[_KIND_GMB, dev] = device_op.gmb
                for kind, attr in enumerate(_CAP_KINDS):
                    capvals[kind, dev] = getattr(device_op, attr)
            gv = self._gv_stack[c]
            if len(t._g_mos_pos):
                gv[t._g_mos_pos] = (
                    t._g_mos_sign * kindvals[t._g_mos_kind, t._g_mos_dev]
                )
            np.add.at(g_stack[c], (t._gr, t._gc), gv)
            cv = self._cv_stack[c]
            if len(t._c_mos_pos):
                cv[t._c_mos_pos] = (
                    t._c_mos_sign * capvals[t._c_mos_kind, t._c_mos_dev]
                )
            np.add.at(c_stack[c], (t._cr, t._cc), cv)
            out.append(
                LinearizedCircuit(
                    layout=bound.layout,
                    g_matrix=g_stack[c],
                    c_matrix=c_stack[c],
                    b_ac=self._b_ac_stack[c].copy(),
                    op=op,
                    noise_sources=[],
                )
            )
        return out


# ---------------------------------------------------------------------------
# Template cache + cross-process persistence.
# ---------------------------------------------------------------------------

#: topology_key -> MnaTemplate, bounded like the layout cache.
_TEMPLATE_CACHE: dict[tuple, MnaTemplate] = {}
_TEMPLATE_CACHE_MAX = 128

#: Compile / persistence counters: ``compiled`` counts fresh
#: ``MnaTemplate`` constructions in this process, ``store_hits`` templates
#: loaded from a :class:`TemplateStore`, ``store_misses`` store lookups
#: that fell through to a compile.  Benchmarks reset and read these to
#: prove that warm reruns stop recompiling.
#: Stored in the process-global metrics registry (``template.*`` counters,
#: see :mod:`repro.obs`); this view keeps the historical dict API.
TEMPLATE_STATS = CounterView(
    REGISTRY, "template", ("compiled", "store_hits", "store_misses")
)


def reset_template_stats() -> None:
    """Zero :data:`TEMPLATE_STATS` (benchmark/test hook)."""
    for key in TEMPLATE_STATS:
        TEMPLATE_STATS[key] = 0


def _key_digest(key: tuple) -> str:
    """Stable content address of a topology key (filesystem-safe)."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class TemplateStore:
    """Content-addressed on-disk store of compiled stamp templates.

    Templates are pure data after the opcode refactor, so they pickle; the
    store keys them by a digest of the circuit topology key.  Writes are
    atomic (tempfile + rename), reads degrade to a miss on any corruption
    — a damaged entry costs one recompile, never an error.  The persistent
    block cache exposes one of these under ``<cache_dir>/templates`` so
    process-pool and queue workers share compiled programs across jobs.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def _path(self, key: tuple) -> Path:
        return self.directory / f"{_key_digest(key)}.tmpl.pkl"

    def load(self, key: tuple) -> MnaTemplate | None:
        """The stored template for ``key``, or ``None`` on miss/corruption."""
        try:
            with open(self._path(key), "rb") as handle:
                template = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ValueError, ImportError):
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
            return None
        if getattr(template, "key", None) != key:
            return None
        return template

    def save(self, template: MnaTemplate) -> None:
        """Persist ``template`` atomically; best-effort (I/O errors ignored)."""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            payload = pickle.dumps(template, protocol=pickle.HIGHEST_PROTOCOL)
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".tmpl-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, self._path(template.key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass


def template_for(circuit: Circuit, store: TemplateStore | None = None) -> MnaTemplate:
    """The compiled stamp template of ``circuit``'s topology (cached).

    Lookup order: in-process cache, then ``store`` (when given), then a
    fresh compile — which is written back to ``store`` so the next process
    skips it.
    """
    key = circuit.topology_key()
    cached = _TEMPLATE_CACHE.get(key)
    if cached is None:
        if len(_TEMPLATE_CACHE) >= _TEMPLATE_CACHE_MAX:
            _TEMPLATE_CACHE.clear()
        if store is not None:
            cached = store.load(key)
            if cached is not None:
                TEMPLATE_STATS["store_hits"] += 1
            else:
                TEMPLATE_STATS["store_misses"] += 1
        if cached is None:
            cached = MnaTemplate(circuit)
            TEMPLATE_STATS["compiled"] += 1
            if store is not None:
                store.save(cached)
        _TEMPLATE_CACHE[key] = cached
    return cached


def bind_template(circuit: Circuit, store: TemplateStore | None = None) -> BoundMna:
    """Compile (cached) and bind the template for ``circuit`` in one step."""
    return template_for(circuit, store=store).bind(circuit)


__all__ = [
    "BoundMna",
    "BoundMnaStack",
    "MnaTemplate",
    "TemplateStore",
    "TEMPLATE_STATS",
    "bind_template",
    "reset_template_stats",
    "template_for",
]
