"""Compiled MNA evaluation kernels: parametric stamp templates.

This is the one MNA implementation of the package: every DC solve,
linearization and transient step runs a stamp program compiled here.  A
per-element walk would dispatch on ``isinstance`` and issue one scalar
``+=`` per matrix stamp inside every Newton iteration of every DC solve;
for a sizing loop that evaluates hundreds of candidates on the same
testbench topology that is almost pure interpreter overhead.

This module compiles a circuit *topology* once into flat stamp programs:

* :class:`MnaTemplate` (cached per :meth:`repro.circuit.netlist.Circuit.topology_key`)
  records every scalar stamp the element walk would emit — row/column
  index arrays in exact emission order, plus value *slots* classified by
  origin (element constants, MOSFET small-signal quantities, source
  injections) — and lays the DC residual out as one fused program (see
  the class);
* :meth:`MnaTemplate.bind` fills the constant slots from a concrete
  circuit's element values, producing a :class:`BoundMna`.  Its
  :meth:`~BoundMna.residual` builds a Newton residual with one gather
  pair, one affine map, one signed gather and one ``np.bincount``;
  :meth:`~BoundMna.jacobian`, which Newton calls only for an iterate that
  takes a step, and :meth:`~BoundMna.linearize` sum their ordered entries
  with one ``np.bincount`` per matrix;
* :class:`ValueWriter` writes new values of chosen elements straight into
  a bound program's slots, so a sizing loop over one topology binds once
  instead of building and rebinding a netlist per candidate;
* :func:`repro.analysis.dc.solve_dc` binds the circuit's template when
  its caller passes none, and :func:`repro.analysis.smallsignal.linearize`
  takes G, C and ``b_ac`` from the bound program;
* :func:`repro.analysis.transient.simulate_transient` steps on a bound DC
  program too: it refreshes the switch and source values per timestep and
  appends inductor and capacitor companions to the same layout, which is
  why the template also records the capacitances the DC program leaves
  open.

Value slots are pure data — ``(opcode, element index, negate)`` triples,
the index in circuit order, which a topology-key match fixes — so a
compiled template is picklable.  Index arrays live on the
template; binding and rebinding only fill values.  Templates are cached
per process by topology key; the ``template.compiled`` counter of
:mod:`repro.obs.metrics` counts compiles.

**Bit-identity contract.**  The compiled programs reproduce the element
walk's floating-point results *bit for bit*: the entry arrays list every
individual ``+=`` in the same order the walk performs them
(``np.bincount`` adds its weights in input order into +0.0 bins, as a
zeroed matrix receives the walk's stamps), each value is computed with the
same arithmetic expression shape (``d - v`` is ``1.0 * d + (-v)``
exactly, ``g * d + (-0.0)`` is ``g * d``, and negation replays the
walk's ``-value`` stamps), and the MOSFET compact model is the very same
loop, :func:`repro.tech.mosfet.device_currents`, that
:func:`~repro.tech.mosfet.dc_current` runs for one device, over every
device at once with its constants bound once per
:meth:`~BoundMna.rebind`.  The walk is the oracle in
``tests/analysis/mna_reference.py``; ``tests/analysis/test_template.py``
and ``tests/analysis/test_mna_single_path.py`` compare against it byte by
byte, which is what keeps campaign records byte-identical to the
pre-kernel evaluator.

An element kind the template cannot compile (only a user-defined
:class:`~repro.circuit.elements.Element` subclass can be one) fails at
compile time with a one-line :class:`~repro.errors.AnalysisError`.
Binding requires an exact topology-key match.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.mna import GROUND, LinearizedCircuit, MnaLayout, layout_for
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
from repro.obs import metrics
from repro.tech.mosfet import (
    MosfetOperatingPoint,
    capacitance_constants,
    device_constants,
    device_currents,
    operating_points,
)

#: MOSFET conductance kinds: offsets within a device's four-value group.
_KIND_GM, _KIND_GDS, _KIND_GMB, _KIND_GSUM = 0, 1, 2, 3

#: MOSFET small-signal capacitance slot kinds, in compact-model order.
_CAP_KINDS = ("cgs", "cgd", "cgb", "cdb", "csb")

# ---------------------------------------------------------------------------
# Constant-slot opcodes.
#
# Every non-MOSFET value slot reduces to "extract one element attribute,
# optionally negated".  Recording slots as (opcode, element index, negate)
# data —
# instead of closures — keeps the compiled template picklable.  Negation (not a
# sign multiply) reproduces the walk's ``-value`` stamps bit-for-bit.
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


def _eval_slots(
    elements: tuple, slots: tuple[tuple[int, int, bool], ...]
) -> list[float]:
    """Evaluate a slot table on a circuit's ``elements``, in circuit order.

    The element index of a constant opcode is -1; ``negate`` replays the
    walk's ``-value``.
    """
    out = []
    append = out.append
    for op, k, negate in slots:
        if op == _OP_ONE:
            value = 1.0
        elif op == _OP_RES_INV:
            value = 1.0 / elements[k].resistance
        elif op == _OP_CAP:
            value = elements[k].capacitance
        elif op == _OP_DC:
            value = elements[k].dc
        elif op == _OP_SW_INV:
            value = 1.0 / elements[k].resistance_at(0.0)
        elif op == _OP_IND:
            value = elements[k].inductance
        elif op == _OP_GAIN:
            value = elements[k].gain
        elif op == _OP_GM:
            value = elements[k].gm
        elif op == _OP_ZERO:
            value = 0.0
        else:  # pragma: no cover
            raise AnalysisError(f"unknown template slot opcode {op}")
        append(-value if negate else value)
    return out


class _Coo:
    """Ordered COO recorder: one entry per scalar ``+=`` of the element walk.

    ``pos`` of an appended entry is its index in the final value buffer;
    callers remember positions of non-constant slots so they can be
    refreshed each iteration.
    """

    def __init__(self):
        self.rows: list[int] = []
        self.cols: list[int] = []
        #: Constant-slot positions and their (opcode, element index, negate)
        #: slots.
        self.const_pos: list[int] = []
        self.const_slots: list[tuple[int, int, bool]] = []

    def append(self, row: int, col: int) -> int:
        self.rows.append(row)
        self.cols.append(col)
        return len(self.rows) - 1

    def append_const(
        self, row: int, col: int, op: int, ei: int = -1, negate: bool = False
    ) -> None:
        pos = self.append(row, col)
        self.const_pos.append(pos)
        self.const_slots.append((op, ei, negate))

    def flat(self, n: int) -> np.ndarray:
        """Row-major cell index ``row * n + col`` of every entry."""
        return np.asarray(self.rows, dtype=np.intp) * n + np.asarray(
            self.cols, dtype=np.intp
        )


# Segments of the fused residual buffer ``[xe | ids | inj | cur]``.
_SEG_XE, _SEG_IDS, _SEG_INJ, _SEG_CUR = 0, 1, 2, 3


class MnaTemplate:
    """Compiled stamp structure for one circuit topology.

    Build via :func:`template_for` (cached) or directly from a prototype
    circuit; call :meth:`bind` with any same-topology circuit to obtain a
    value-carrying :class:`BoundMna`.  Instances are pure data (index
    arrays plus opcode slot tables) and therefore picklable.

    The DC residual is a *fused layout*.  Every residual entry the element
    walk adds, in its order, is ``sign * buf[src]`` over one buffer
    ``[xe | ids | inj | cur]``: the ground-extended unknowns (ground at
    slot ``size``, branch currents read in place), the MOSFET drain
    currents, one injected current per current source, and the affine
    currents ``cur = C * (xe[a] - xe[b]) + E`` — one per resistor, switch
    and VCCS (``C`` the conductance, ``E = -0.0``) and one per voltage
    source, inductor and VCVS constraint row (``C = 1.0``; ``E`` is minus
    the source value, or ``-0.0`` for a row whose extra term
    :class:`FusedResidual` adds).  ``_rr`` names each entry's residual row.
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
        # Residual entries in the element walk's order: row, sign, and the
        # (segment, index) of the value they add.
        r_rows: list[int] = []
        r_signs: list[float] = []
        r_srcs: list[tuple[int, int]] = []
        # Affine currents: cur = C * (xe[a] - xe[b]) + E; C from a slot.
        aff_a: list[int] = []
        aff_b: list[int] = []
        aff_slots: list[tuple[int, str | None, bool]] = []
        # Voltage-source constraints: E = -(dc * source_scale).
        vs_aff: list[int] = []
        vs_slots: list[tuple[int, str | None, bool]] = []
        # Inductor constraints (a DC short, E = -0.0) and their branch rows.
        ind_aff: list[int] = []
        ind_k: list[int] = []
        ind_names: list[str] = []
        # VCVS constraints: cur -= gain * (xe[cp] - xe[cn]) per iterate.
        vg_aff: list[int] = []
        vg_cp: list[int] = []
        vg_cn: list[int] = []
        vg_slots: list[tuple[int, str | None, bool]] = []
        # Current-source injections: dc * source_scale.
        inj_slots: list[tuple[int, str | None, bool]] = []
        # Capacitances the DC program leaves open, in netlist order:
        # (i, j, element name, kind) — kind -1 for a capacitor, else an
        # index into _CAP_KINDS.  The transient companion stamps use them.
        cap_terms: list[tuple[int, int, str, int]] = []
        # MOSFET slots.
        mos_names: list[str] = []
        mos_k: list[int] = []  # their element indices
        mos_xe: list[tuple[int, int, int, int]] = []  # (d, g, s, b) ext slots
        j_mos_pos: list[int] = []
        j_mos_val: list[int] = []  # dev * 4 + kind
        j_mos_sign: list[float] = []

        def entry(row: int, sign: float, segment: int, index: int) -> None:
            """``resid[row] += sign * value`` (ground rows dropped)."""
            if row != GROUND:
                r_rows.append(row)
                r_signs.append(sign)
                r_srcs.append((segment, index))

        def affine(a: int, b: int, op: int, ei: int = -1) -> int:
            aff_a.append(a)
            aff_b.append(b)
            aff_slots.append((op, ei, False))
            return len(aff_a) - 1

        def emit_pair_current(
            a: int, b: int, op: int, ei: int, node_i: int, node_j: int
        ):
            """cur = coeff*(xe[a]-xe[b]); resid[i] += cur; resid[j] -= cur."""
            src = affine(a, b, op, ei)
            entry(node_i, +1.0, _SEG_CUR, src)
            entry(node_j, -1.0, _SEG_CUR, src)

        def emit_conductance(i: int, j: int, op: int, ei: int):
            """Replay the walk's conductance stamp."""
            if i != GROUND:
                jac.append_const(i, i, op, ei)
            if j != GROUND:
                jac.append_const(j, j, op, ei)
            if i != GROUND and j != GROUND:
                jac.append_const(i, j, op, ei, negate=True)
                jac.append_const(j, i, op, ei, negate=True)

        def emit_branch_jac(p: int, nn: int, k: int):
            """Voltage-source-style jac cross terms of branch ``k``."""
            if p != GROUND:
                jac.append_const(p, k, _OP_ONE)
                jac.append_const(k, p, _OP_ONE)
            if nn != GROUND:
                jac.append_const(nn, k, _OP_ONE, negate=True)
                jac.append_const(k, nn, _OP_ONE, negate=True)

        def emit_branch_current(p: int, nn: int, k: int):
            """resid[p] += x[k]; resid[nn] -= x[k]."""
            entry(p, +1.0, _SEG_XE, k)
            entry(nn, -1.0, _SEG_XE, k)

        for ei, element in enumerate(circuit):
            name = element.name
            if isinstance(element, Resistor):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_conductance(i, j, _OP_RES_INV, ei)
                emit_pair_current(
                    xi(element.n1), xi(element.n2), _OP_RES_INV, ei, i, j
                )
            elif isinstance(element, Switch):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_conductance(i, j, _OP_SW_INV, ei)
                emit_pair_current(
                    xi(element.n1), xi(element.n2), _OP_SW_INV, ei, i, j
                )
            elif isinstance(element, Capacitor):
                # Open in DC.
                cap_terms.append(
                    (layout.index(element.n1), layout.index(element.n2), name, -1)
                )
            elif isinstance(element, CurrentSource):
                src = len(inj_slots)
                inj_slots.append((_OP_DC, ei, False))
                entry(layout.index(element.positive), +1.0, _SEG_INJ, src)
                entry(layout.index(element.negative), -1.0, _SEG_INJ, src)
            elif isinstance(element, VoltageSource):
                p = layout.index(element.positive)
                nn = layout.index(element.negative)
                k = layout.branch(name)
                emit_branch_jac(p, nn, k)
                emit_branch_current(p, nn, k)
                src = affine(xi(element.positive), xi(element.negative), _OP_ONE)
                vs_aff.append(src)
                vs_slots.append((_OP_DC, ei, False))
                entry(k, +1.0, _SEG_CUR, src)
            elif isinstance(element, Vcvs):
                op_ = layout.index(element.out_positive)
                on_ = layout.index(element.out_negative)
                cp = layout.index(element.ctrl_positive)
                cn = layout.index(element.ctrl_negative)
                k = layout.branch(name)
                # The walk's VCVS stamp order: out rows, then the gain row.
                emit_branch_jac(op_, on_, k)
                if cp != GROUND:
                    jac.append_const(k, cp, _OP_GAIN, ei, negate=True)
                if cn != GROUND:
                    jac.append_const(k, cn, _OP_GAIN, ei)
                emit_branch_current(op_, on_, k)
                src = affine(xi(element.out_positive), xi(element.out_negative), _OP_ONE)
                vg_aff.append(src)
                vg_cp.append(xi(element.ctrl_positive))
                vg_cn.append(xi(element.ctrl_negative))
                vg_slots.append((_OP_GAIN, ei, False))
                entry(k, +1.0, _SEG_CUR, src)
            elif isinstance(element, Vccs):
                op_ = layout.index(element.out_positive)
                on_ = layout.index(element.out_negative)
                cp = layout.index(element.ctrl_positive)
                cn = layout.index(element.ctrl_negative)
                for row, sign in ((op_, +1.0), (on_, -1.0)):
                    if row == GROUND:
                        continue
                    if cp != GROUND:
                        jac.append_const(row, cp, _OP_GM, ei, negate=sign < 0)
                    if cn != GROUND:
                        jac.append_const(row, cn, _OP_GM, ei, negate=sign > 0)
                emit_pair_current(
                    xi(element.ctrl_positive),
                    xi(element.ctrl_negative),
                    _OP_GM,
                    ei,
                    op_,
                    on_,
                )
            elif isinstance(element, Inductor):
                p = layout.index(element.n1)
                nn = layout.index(element.n2)
                k = layout.branch(name)
                emit_branch_jac(p, nn, k)
                emit_branch_current(p, nn, k)
                src = affine(xi(element.n1), xi(element.n2), _OP_ONE)
                ind_aff.append(src)
                ind_k.append(k)
                ind_names.append(name)
                entry(k, +1.0, _SEG_CUR, src)
            elif isinstance(element, Mosfet):
                d = layout.index(element.drain)
                g_ = layout.index(element.gate)
                s = layout.index(element.source)
                b = layout.index(element.bulk)
                dev = len(mos_names)
                mos_names.append(name)
                mos_k.append(ei)
                mos_xe.append(
                    (
                        xi(element.drain),
                        xi(element.gate),
                        xi(element.source),
                        xi(element.bulk),
                    )
                )
                entry(d, +1.0, _SEG_IDS, dev)
                entry(s, -1.0, _SEG_IDS, dev)
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
                        j_mos_val.append(dev * 4 + kind)
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

        # np.bincount returns integer zeros for no entries at all; one +0.0
        # entry keeps a program with none (a netlist of capacitors and
        # current sources, say) as float as the walk's zeroed arrays.
        if n and not r_rows:
            entry(0, +1.0, _SEG_XE, ground_slot)
        if n and not jac.rows:
            jac.append_const(0, 0, _OP_ZERO)

        asarray = np.asarray
        self._jflat = jac.flat(n)
        self._j_const_pos = asarray(jac.const_pos, dtype=np.intp)
        self._j_const_slots = tuple(jac.const_slots)
        self._j_mos_pos = asarray(j_mos_pos, dtype=np.intp)
        self._j_mos_val = asarray(j_mos_val, dtype=np.intp)
        self._j_mos_sign = asarray(j_mos_sign, dtype=float)
        # Fused residual layout: buffer offsets, then the entry arrays.
        self.mos_names = tuple(mos_names)
        self._mos_k = tuple(mos_k)
        self._mos_xe = mos_xe
        self._n_inj = len(inj_slots)
        self._ids_off = n + 1
        self._inj_off = self._ids_off + len(mos_names)
        self._cur_off = self._inj_off + self._n_inj
        base = (0, self._ids_off, self._inj_off, self._cur_off)
        self._rr = asarray(r_rows, dtype=np.intp)
        self._r_sign = asarray(r_signs, dtype=float)
        self._r_src = asarray([base[seg] + i for seg, i in r_srcs], dtype=np.intp)
        self._aff_a = asarray(aff_a, dtype=np.intp)
        self._aff_b = asarray(aff_b, dtype=np.intp)
        self._aff_slots = tuple(aff_slots)
        self._vs_aff = asarray(vs_aff, dtype=np.intp)
        self._vs_slots = tuple(vs_slots)
        self._ind_aff = asarray(ind_aff, dtype=np.intp)
        self._ind_k = asarray(ind_k, dtype=np.intp)
        self._ind_names = tuple(ind_names)
        self._vg_aff = asarray(vg_aff, dtype=np.intp)
        self._vg_cp = asarray(vg_cp, dtype=np.intp)
        self._vg_cn = asarray(vg_cn, dtype=np.intp)
        self._vg_slots = tuple(vg_slots)
        self._inj_slots = tuple(inj_slots)
        self._cap_terms = tuple(cap_terms)

        self._compile_linear(circuit)

    # -- small-signal program --------------------------------------------

    def _compile_linear(self, circuit: Circuit) -> None:
        """Record the small-signal stamp walk."""
        layout = self.layout
        g = _Coo()
        c = _Coo()
        g_mos_pos: list[int] = []
        g_mos_val: list[int] = []  # dev * 4 + _KIND_GM / _KIND_GDS / _KIND_GMB
        g_mos_sign: list[float] = []
        c_mos_pos: list[int] = []
        c_mos_val: list[int] = []  # dev * 5 + index into _CAP_KINDS
        c_mos_sign: list[float] = []
        #: (branch-or-node index, sign, element index) for b_ac.
        b_ac_slots: list[tuple[int, float, int]] = []

        def emit_sym(coo: _Coo, i: int, j: int, op: int, ei: int) -> None:
            """Symmetric two-terminal stamp (conductance / capacitance)."""
            if i != GROUND:
                coo.append_const(i, i, op, ei)
            if j != GROUND:
                coo.append_const(j, j, op, ei)
            if i != GROUND and j != GROUND:
                coo.append_const(i, j, op, ei, negate=True)
                coo.append_const(j, i, op, ei, negate=True)

        def emit_mos_g(row: int, col: int, dev: int, kind: int, sign: float):
            g_mos_pos.append(g.append(row, col))
            g_mos_val.append(dev * 4 + kind)
            g_mos_sign.append(sign)

        def emit_mos_vccs(op_: int, on_: int, cp: int, cn: int, dev: int, kind: int):
            """Replay the walk's transconductance stamp with a device slot."""
            for row, sign in ((op_, +1.0), (on_, -1.0)):
                if row == GROUND:
                    continue
                if cp != GROUND:
                    emit_mos_g(row, cp, dev, kind, sign)
                if cn != GROUND:
                    emit_mos_g(row, cn, dev, kind, -sign)

        dev_of = {nm: i for i, nm in enumerate(self.mos_names)}

        for ei, element in enumerate(circuit):
            name = element.name
            if isinstance(element, Resistor):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_sym(g, i, j, _OP_RES_INV, ei)
            elif isinstance(element, Switch):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_sym(g, i, j, _OP_SW_INV, ei)
            elif isinstance(element, Capacitor):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_sym(c, i, j, _OP_CAP, ei)
            elif isinstance(element, Inductor):
                p, nn = layout.index(element.n1), layout.index(element.n2)
                k = layout.branch(name)
                if p != GROUND:
                    g.append_const(p, k, _OP_ONE)
                    g.append_const(k, p, _OP_ONE)
                if nn != GROUND:
                    g.append_const(nn, k, _OP_ONE, negate=True)
                    g.append_const(k, nn, _OP_ONE, negate=True)
                c.append_const(k, k, _OP_IND, ei, negate=True)
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
                b_ac_slots.append((k, +1.0, ei))
            elif isinstance(element, CurrentSource):
                p = layout.index(element.positive)
                nn = layout.index(element.negative)
                if p != GROUND:
                    b_ac_slots.append((p, -1.0, ei))
                if nn != GROUND:
                    b_ac_slots.append((nn, +1.0, ei))
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
                    g.append_const(k, cp, _OP_GAIN, ei, negate=True)
                if cn != GROUND:
                    g.append_const(k, cn, _OP_GAIN, ei)
            elif isinstance(element, Vccs):
                op_ = layout.index(element.out_positive)
                on_ = layout.index(element.out_negative)
                cp = layout.index(element.ctrl_positive)
                cn = layout.index(element.ctrl_negative)
                for row, sign in ((op_, +1.0), (on_, -1.0)):
                    if row == GROUND:
                        continue
                    if cp != GROUND:
                        g.append_const(row, cp, _OP_GM, ei, negate=sign < 0)
                    if cn != GROUND:
                        g.append_const(row, cn, _OP_GM, ei, negate=sign > 0)
            elif isinstance(element, Mosfet):
                dev = dev_of[name]
                d = layout.index(element.drain)
                g_ = layout.index(element.gate)
                s = layout.index(element.source)
                b = layout.index(element.bulk)
                emit_mos_vccs(d, s, g_, s, dev, _KIND_GM)
                # The walk's conductance stamp of gds between d and s.
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
                        c_mos_val.append(dev * len(_CAP_KINDS) + kind)
                        c_mos_sign.append(sign)
            else:
                raise AnalysisError(
                    f"element type {type(element).__name__} not supported "
                    "by the compiled small-signal template"
                )

        asarray = np.asarray
        n = self.size
        self._gflat = g.flat(n)
        self._g_const_pos = asarray(g.const_pos, dtype=np.intp)
        self._g_const_slots = tuple(g.const_slots)
        self._cflat = c.flat(n)
        self._c_const_pos = asarray(c.const_pos, dtype=np.intp)
        self._c_const_slots = tuple(c.const_slots)
        self._g_mos_pos = asarray(g_mos_pos, dtype=np.intp)
        self._g_mos_val = asarray(g_mos_val, dtype=np.intp)
        self._g_mos_sign = asarray(g_mos_sign, dtype=float)
        self._c_mos_pos = asarray(c_mos_pos, dtype=np.intp)
        self._c_mos_val = asarray(c_mos_val, dtype=np.intp)
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


def _cell_sums(flat: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The ``n``-by-``n`` matrix of ``values`` summed, in order, per cell.

    ``flat`` names each value's row-major cell.  With no values at all
    ``np.bincount`` would return integer zeros; the walk's matrix is float.
    """
    if not len(values):
        return np.zeros((n, n))
    return np.bincount(flat, values, n * n).reshape(n, n)


def assemble_jacobian(
    template: "MnaTemplate",
    flat: np.ndarray,
    values: np.ndarray,
    cond: list[float],
) -> np.ndarray:
    """Write the MOSFET entries into ``values`` and sum them per cell.

    ``flat`` and ``values`` start with the template's DC entries, whose
    MOSFET slots ``cond`` (from :func:`~repro.tech.mosfet.device_currents`)
    fills.
    ``np.bincount`` adds its weights in input order into +0.0 bins, the
    additions a zeroed matrix receives from the walk's ``+=`` stamps.
    """
    t = template
    n = t.size
    if cond:
        values[t._j_mos_pos] = t._j_mos_sign * np.array(cond)[t._j_mos_val]
    return np.bincount(flat, values, n * n).reshape(n, n)


class FusedResidual:
    """Value buffers and per-iterate kernel of a fused residual layout.

    ``buf`` is ``[xe | ids | inj | cur]`` (see :class:`MnaTemplate`); ``c``
    and ``e`` hold the affine map's values, ``inj`` the injected currents.
    One call builds the residual with one gather pair, one affine map,
    one signed gather and one ``np.bincount`` over ``rows``.  Two terms
    keep their own two-rounding shapes and run only when present: a
    VCVS's control term ``cur -= gain * (xe[cp] - xe[cn])`` and an
    inductor's transient history ``cur = (cur - req * x[k]) + rhs``.

    Every value keeps the walk's IEEE expression: ``d - v`` is
    ``1.0 * d + (-v)`` exactly, and ``E = -0.0`` leaves ``g * d`` as it
    is, the sign of a zero included.  The arrays that index ``buf`` are
    shared with the template; only values live here.
    """

    def __init__(
        self,
        template: "MnaTemplate",
        a: np.ndarray,
        b: np.ndarray,
        rows: np.ndarray,
        sign: np.ndarray,
        src: np.ndarray,
    ):
        t = template
        self.size = t.size
        self.a, self.b = a, b
        self.rows, self.sign, self.src = rows, sign, src
        self.buf = np.zeros(t._cur_off + len(a))
        self.xe = self.buf[: t.size + 1]
        self.ids = self.buf[t._ids_off : t._inj_off]
        self.inj = self.buf[t._inj_off : t._cur_off]
        self.cur = self.buf[t._cur_off :]
        self.c = np.zeros(len(a))
        self.e = np.full(len(a), -0.0)
        #: ``(aff, cp, cn, gain)`` when the netlist has a VCVS.
        self.vcvs: tuple | None = None
        #: ``(aff, k, req)`` and ``ind_rhs`` for the transient's inductors.
        self.inductor: tuple | None = None
        self.ind_rhs = np.zeros(0)
        #: ``xe[a] - xe[b]`` of the last call, a fresh array each call.
        self.diff = np.zeros(len(a))

    def __call__(self, x: np.ndarray, ids: list[float]) -> np.ndarray:
        xe = self.xe
        xe[: self.size] = x
        self.ids[:] = ids
        self.diff = diff = xe[self.a] - xe[self.b]
        cur = self.cur
        np.multiply(self.c, diff, out=cur)
        cur += self.e
        if self.vcvs is not None:
            aff, cp, cn, gain = self.vcvs
            cur[aff] -= gain * (xe[cp] - xe[cn])
        if self.inductor is not None:
            aff, k, req = self.inductor
            cur[aff] = (cur[aff] - req * xe[k]) + self.ind_rhs
        return np.bincount(self.rows, self.sign * self.buf[self.src], self.size)


class BoundMna:
    """A template bound to one circuit's element values.

    Holds its own value buffers, so concurrently bound instances never
    share mutable state; the structure arrays on the parent
    :class:`MnaTemplate` are read-only.  A DC Newton iterate calls
    :meth:`residual`, and :meth:`jacobian` only when it takes a step.

    The buffers are what every analysis reads.  Once a
    :class:`ValueWriter` has written into them, :attr:`circuit` and
    :attr:`layout` (and the layout of every :meth:`linearize` result) carry
    the names and topology only: their elements keep the values last
    bound, not the ones the program holds.
    """

    def __init__(self, template: MnaTemplate, circuit: Circuit):
        self.template = template
        t = template
        n = t.size
        # DC buffers: constants filled by rebind, MOSFET slots per call.
        self._jv = np.zeros(len(t._jflat))
        self._fused = fused = FusedResidual(
            t, t._aff_a, t._aff_b, t._rr, t._r_sign, t._r_src
        )
        self._vdc = np.zeros(len(t._vs_slots))
        self._inj_dc = np.zeros(t._n_inj)
        self._vg_gain = np.zeros(len(t._vg_slots))
        if len(self._vg_gain):
            fused.vcvs = (t._vg_aff, t._vg_cp, t._vg_cn, self._vg_gain)
        self._cond: list[float] = []
        # Small-signal buffers.
        self._gv = np.zeros(len(t._gflat))
        self._cv = np.zeros(len(t._cflat))
        self._b_ac = np.zeros(n, dtype=complex)
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
        elements = circuit.elements
        if len(t._j_const_pos):
            self._jv[t._j_const_pos] = _eval_slots(elements, t._j_const_slots)
        fused = self._fused
        if len(fused.c):
            fused.c[:] = _eval_slots(elements, t._aff_slots)
        if len(self._vdc):
            self._vdc[:] = _eval_slots(elements, t._vs_slots)
        if len(self._inj_dc):
            self._inj_dc[:] = _eval_slots(elements, t._inj_slots)
        if len(self._vg_gain):
            self._vg_gain[:] = _eval_slots(elements, t._vg_slots)
        #: The source scale ``e`` and ``inj`` hold; None forces a refill.
        self._scale = None
        mosfets = [elements[k] for k in t._mos_k]
        #: Each MOSFET's ``(params, w, l, mult)``, which
        #: :meth:`operating_points` reads.
        self._geometry = geometry = [(e.params, e.w, e.l, e.mult) for e in mosfets]
        #: One flat tuple per MOSFET for the model loop (see
        #: :func:`~repro.tech.mosfet.device_currents`): its constants, its
        #: multiplier and its ground-extended terminal slots.
        self._devices = [
            device_constants(params, w, l) + (mult,) + xe
            for (params, w, l, mult), xe in zip(geometry, t._mos_xe)
        ]
        if len(t._g_const_pos):
            self._gv[t._g_const_pos] = _eval_slots(elements, t._g_const_slots)
        if len(t._c_const_pos):
            self._cv[t._c_const_pos] = _eval_slots(elements, t._c_const_slots)
        b_ac = self._b_ac
        b_ac[:] = 0.0
        for idx, sign, k in t._b_ac_slots:
            if sign > 0:
                b_ac[idx] += elements[k].ac
            else:
                b_ac[idx] -= elements[k].ac
        return self

    # -- DC Newton system --------------------------------------------------

    def residual(
        self, x: np.ndarray, gmin: float, source_scale: float
    ) -> np.ndarray:
        """The DC Newton residual at ``x``, bit for bit the walk's.

        Also evaluates the MOSFETs' conductances at ``x`` for a following
        :meth:`jacobian` call.
        """
        fused = self._fused
        if source_scale != self._scale:
            fused.e[self.template._vs_aff] = -(self._vdc * source_scale)
            fused.inj[:] = self._inj_dc * source_scale
            self._scale = source_scale
        xl = x.tolist()
        xl.append(0.0)
        ids, self._cond = device_currents(self._devices, xl)
        resid = fused(x, ids)
        if gmin > 0.0:
            n_nodes = self.template.n_nodes
            resid[:n_nodes] += gmin * x[:n_nodes]
        return resid

    def jacobian(self, gmin: float) -> np.ndarray:
        """The DC Newton jacobian, bit for bit the walk's.

        It is taken at the ``x`` of the last :meth:`residual` call.
        """
        t = self.template
        jac = assemble_jacobian(t, t._jflat, self._jv, self._cond)
        if gmin > 0.0:
            diag = np.arange(t.n_nodes)
            jac[diag, diag] += gmin
        return jac

    def newton_solve(self, jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The DC Newton step's linear solve.

        It is the public ``np.linalg.solve``, so every solve of the stack,
        the transient's t=0 operating point included, stays visible to
        tools that wrap ``numpy.linalg.solve``.  Calling its LAPACK gufunc
        directly would save about 5-7 µs per 13x13 system, about half of
        the call, or 0.3-0.5 s of a cold Fig. 2 campaign's 70,623 single
        solves (docs/performance.md, "The kernel layer").
        """
        return np.linalg.solve(jac, rhs)

    def operating_points(self, x: np.ndarray) -> dict[str, MosfetOperatingPoint]:
        """Every MOSFET's operating point at the solution ``x``, by name.

        Each device is taken at its multiplied width; one with ``mult`` 1
        reuses the Newton loop's tuple that :meth:`rebind` bound.
        """
        devices = []
        caps = []
        for (params, w, l, mult), device in zip(self._geometry, self._devices):
            w = w * mult
            if mult != 1:
                device = device_constants(params, w, l) + (1,) + device[-4:]
            devices.append(device)
            caps.append(capacitance_constants(params, w, l))
        xl = x.tolist()
        xl.append(0.0)
        return dict(zip(self.template.mos_names, operating_points(devices, caps, xl)))

    # -- small-signal ------------------------------------------------------

    def linearize(self, op) -> LinearizedCircuit:
        """G, C and ``b_ac`` of this bound circuit at the operating point ``op``.

        ``op`` is the :class:`~repro.analysis.dc.DcSolution` of this bound
        circuit.  The noise-source list is empty:
        :func:`repro.analysis.smallsignal.linearize` adds it.
        """
        t = self.template
        n = t.size
        cond = []
        caps = []
        device_ops = op.device_ops
        for name in t.mos_names:
            device_op = device_ops.get(name)
            if device_op is None:
                raise AnalysisError(
                    f"no operating point for device {name!r}; "
                    "was the DC solution computed on the same circuit?"
                )
            cond += (device_op.gm, device_op.gds, device_op.gmb, 0.0)
            caps += [getattr(device_op, attr) for attr in _CAP_KINDS]

        gv = self._gv
        if len(t._g_mos_pos):
            gv[t._g_mos_pos] = t._g_mos_sign * np.array(cond)[t._g_mos_val]
        cv = self._cv
        if len(t._c_mos_pos):
            cv[t._c_mos_pos] = t._c_mos_sign * np.array(caps)[t._c_mos_val]

        return LinearizedCircuit(
            layout=self.layout,
            g_matrix=_cell_sums(t._gflat, gv, n),
            c_matrix=_cell_sums(t._cflat, cv, n),
            b_ac=self._b_ac.copy(),
            op=op,
            noise_sources=[],
        )


class ValueWriter:
    """Writes new values of some elements straight into a :class:`BoundMna`.

    A sizing loop that changes only some values of one topology calls it
    per candidate instead of building a netlist and rebinding it.
    ``ValueWriter(bound, indices)(values)`` takes one value per element of
    ``indices`` (their indices in circuit order): a resistance,
    capacitance, inductance, VCVS gain, VCCS transconductance or
    independent-source DC value, or a MOSFET's ``(w, l)``.  Each lands in
    every slot the template recorded for that element at compile time,
    with :func:`_eval_slots`' arithmetic (``1.0 / r``, and a negated slot
    as ``-value``), and a MOSFET's geometry rebuilds its model tuple; so
    the buffers hold what :meth:`BoundMna.rebind` would read from a
    netlist carrying the values.

    Source ``ac`` values, device parameters and multipliers keep their
    bound values, and ``bound.circuit`` stays the circuit last bound, so
    its elements no longer carry the written values.  A switch's
    conductance follows its phase, so a switch is not writable.
    """

    def __init__(self, bound: BoundMna, indices):
        t = bound.template
        fused = bound._fused
        slot_of = {ei: k for k, ei in enumerate(indices)}
        count = len(bound.circuit.elements)
        for ei in slot_of:
            if not 0 <= ei < count:
                raise AnalysisError(f"no element at index {ei} to write")
        # (buffer, positions, slots) of every constant-slot table.
        tables = (
            (bound._jv, t._j_const_pos, t._j_const_slots),
            (fused.c, range(len(t._aff_slots)), t._aff_slots),
            (bound._vdc, range(len(t._vs_slots)), t._vs_slots),
            (bound._inj_dc, range(t._n_inj), t._inj_slots),
            (bound._vg_gain, range(len(t._vg_slots)), t._vg_slots),
            (bound._gv, t._g_const_pos, t._g_const_slots),
            (bound._cv, t._c_const_pos, t._c_const_slots),
        )
        ops: dict[int, int] = {}
        targets: dict[int, list[tuple[np.ndarray, int, bool]]] = {}
        for buf, positions, slots in tables:
            for pos, (op, ei, negate) in zip(positions, slots):
                k = slot_of.get(ei)
                if k is None:
                    continue
                if op == _OP_SW_INV:
                    raise AnalysisError(
                        f"switch {bound.circuit.elements[ei].name!r} is not writable"
                    )
                ops[k] = op
                targets.setdefault(k, []).append((buf, int(pos), negate))
        #: ``(value index, opcode, [(buffer, position, negate)])`` per element.
        self._scalars = tuple((k, ops[k], tuple(targets[k])) for k in sorted(targets))
        #: ``(value index, device, terminal slots)`` per MOSFET.
        self._mosfets = tuple(
            (slot_of[ei], dev, xe)
            for dev, (ei, xe) in enumerate(zip(t._mos_k, t._mos_xe))
            if ei in slot_of
        )
        self._bound = bound

    def __call__(self, values) -> None:
        """Write ``values``, one per index, into the bound program."""
        for k, op, targets in self._scalars:
            value = values[k]
            if op == _OP_RES_INV:
                value = 1.0 / value
            negated = -value
            for buf, pos, negate in targets:
                buf[pos] = negated if negate else value
        bound = self._bound
        geometry = bound._geometry
        devices = bound._devices
        for k, dev, xe in self._mosfets:
            w, l = values[k]
            params, _, _, mult = geometry[dev]
            geometry[dev] = (params, w, l, mult)
            devices[dev] = device_constants(params, w, l) + (mult,) + xe
        # A written source value reaches ``e`` and ``inj`` on the next refill.
        bound._scale = None


# ---------------------------------------------------------------------------
# Template cache.
# ---------------------------------------------------------------------------

#: topology_key -> MnaTemplate, bounded like the layout cache.
_TEMPLATE_CACHE: dict[tuple, MnaTemplate] = {}
_TEMPLATE_CACHE_MAX = 128

def template_for(circuit: Circuit) -> MnaTemplate:
    """The compiled stamp template of ``circuit``'s topology (cached)."""
    key = circuit.topology_key()
    cached = _TEMPLATE_CACHE.get(key)
    if cached is None:
        if len(_TEMPLATE_CACHE) >= _TEMPLATE_CACHE_MAX:
            _TEMPLATE_CACHE.clear()
        cached = MnaTemplate(circuit)
        metrics.counter("template.compiled")
        _TEMPLATE_CACHE[key] = cached
    return cached


def bind_template(circuit: Circuit) -> BoundMna:
    """Compile (cached) and bind the template for ``circuit`` in one step."""
    return template_for(circuit).bind(circuit)


__all__ = [
    "BoundMna",
    "MnaTemplate",
    "ValueWriter",
    "bind_template",
    "template_for",
]
