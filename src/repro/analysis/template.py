"""Compiled MNA evaluation kernels: parametric stamp templates.

This is the one MNA implementation of the package: every DC solve,
linearization and transient step runs a stamp program compiled here.  A
per-element walk would dispatch on ``isinstance`` and issue one scalar
``+=`` per matrix stamp inside every Newton iteration of every DC solve;
for a sizing loop that evaluates hundreds of candidates on the same
testbench topology that is almost pure interpreter overhead.

This module compiles a circuit *topology* once, in one pass over its
elements, into flat stamp programs:

* :class:`MnaTemplate` (cached per :meth:`repro.circuit.netlist.Circuit.topology_key`)
  owns the topology's :class:`~repro.analysis.mna.MnaLayout` and records
  every scalar stamp the element walk would emit — row/column index
  arrays in exact emission order for the DC jacobian and the small-signal
  G and C matrices, the DC residual as one fused program (see the class)
  and the capacitances the DC program leaves open — plus one value-slot
  table, :attr:`MnaTemplate.slots`: per element, the opcode of its value
  and every ``(buffer, position, negate)`` slot the value lands in;
* :meth:`MnaTemplate.bind` writes the unit and zero stamps and fills the
  slots from a concrete circuit's element values, producing a
  :class:`BoundMna`.  Its :meth:`~BoundMna.residual` builds a Newton
  residual with one gather pair, one affine map, one signed gather and
  one ``np.bincount``; :meth:`~BoundMna.jacobian`, which Newton calls only
  for an iterate that takes a step, and :meth:`~BoundMna.linearize` sum
  their ordered entries with one ``np.bincount`` per matrix;
* :class:`ValueWriter` writes new values of chosen elements through the
  same slot table, so a sizing loop over one topology binds once instead
  of building and rebinding a netlist per candidate;
* :func:`repro.analysis.dc.solve_dc` binds the circuit's template when
  its caller passes none, and :func:`repro.analysis.smallsignal.linearize`
  takes G, C and ``b_ac`` from the bound program;
* :func:`repro.analysis.transient.simulate_transient` steps on a bound DC
  program too: it finds the switch and source slots in the slot table,
  refreshes their values per timestep and appends inductor and capacitor
  companions to the same layout.

Templates are pure data — index arrays, slot tables and the layout — so a
compiled template is picklable; binding and rebinding only fill values.
Each bind views the template's layout through its own circuit
(:meth:`~repro.analysis.mna.MnaLayout.with_circuit`), so an error names
the caller's circuit.  Templates are cached per process by topology key;
the ``template.compiled`` counter of :mod:`repro.obs.metrics` counts
compiles.

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

from repro.analysis.mna import GROUND, LinearizedCircuit, MnaLayout
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
    DeviceArrays,
    capacitance_constants,
    device_constants,
    device_currents,
)

#: MOSFET conductance kinds: offsets within a device's four-value group.
_KIND_GM, _KIND_GDS, _KIND_GMB, _KIND_GSUM = 0, 1, 2, 3

#: MOSFET small-signal capacitance slot kinds, in compact-model order.
_CAP_KINDS = ("cgs", "cgd", "cgb", "cdb", "csb")

# ---------------------------------------------------------------------------
# The value-slot table.
#
# Every non-MOSFET element value lands in one or more slots of a bound
# program's value buffers.  The template records them as data, per element
# index an opcode and ``(buffer, position, negate)`` triples, instead of
# closures, which keeps it picklable.  Negation (not a sign multiply)
# reproduces the walk's ``-value`` stamps bit for bit.
# ---------------------------------------------------------------------------

#: A bound program's value buffers, in the order :attr:`BoundMna._buffers`
#: lists them: DC jacobian entries, the fused residual's affine
#: coefficients, voltage-source and current-source DC values, VCVS gains,
#: and the small-signal G and C entries.
_BUF_J, _BUF_AFF, _BUF_VDC, _BUF_INJ, _BUF_GAIN, _BUF_G, _BUF_C = range(7)

#: Value opcodes: the attribute an element's slots hold.  A resistor's and
#: a switch's slots hold its conductance, ``1.0 / r``.
_OP_RES_INV, _OP_SW_INV, _OP_CAP, _OP_IND, _OP_GAIN, _OP_GM, _OP_DC = range(7)
_ATTRIBUTES = (None, None, "capacitance", "inductance", "gain", "gm", "dc")


def _slot_value(op: int, element) -> float:
    """The value ``element`` writes into its slots, before negation."""
    if op == _OP_RES_INV:
        return 1.0 / element.resistance
    if op == _OP_SW_INV:
        return 1.0 / element.resistance_at(0.0)
    return getattr(element, _ATTRIBUTES[op])


class _Coo:
    """Ordered COO recorder: one entry per scalar ``+=`` of the element walk.

    ``append`` returns the entry's position in its value buffer.
    """

    def __init__(self, buffer: int):
        self.buffer = buffer
        self.rows: list[int] = []
        self.cols: list[int] = []

    def append(self, row: int, col: int) -> int:
        self.rows.append(row)
        self.cols.append(col)
        return len(self.rows) - 1

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
    arrays, slot tables and the topology's :class:`MnaLayout`) and
    therefore picklable.

    One pass over the elements records every program: the DC jacobian's
    and the small-signal G and C matrices' entries, the fused DC residual,
    the capacitances the DC program leaves open (for the transient's
    companions) and :attr:`slots`, where each element's value lands.

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
        #: The topology's layout; each bind takes a view naming its circuit.
        self.layout = layout = MnaLayout(circuit)
        index = layout.index
        n = layout.size
        self.size = n
        self.n_nodes = len(layout.nets)

        def xi(net: str) -> int:
            """Slot of a net in the ground-extended vector (ground -> n)."""
            idx = index(net)
            return n if idx == GROUND else idx

        jac, g, c = _Coo(_BUF_J), _Coo(_BUF_G), _Coo(_BUF_C)
        # Per element index: its value's (buffer, position, negate) slots.
        slots: list[list[tuple[int, int, bool]]] = [[] for _ in range(len(circuit))]
        # (buffer, position, value) of the unit and zero stamps.
        constants: list[tuple[int, int, float]] = []
        ops: list[int | None] = []
        # Residual entries in the element walk's order: row, sign, and the
        # (segment, index) of the value they add.
        r_rows: list[int] = []
        r_signs: list[float] = []
        r_srcs: list[tuple[int, int]] = []
        # Affine currents: cur = C * (xe[a] - xe[b]) + E.
        aff_a: list[int] = []
        aff_b: list[int] = []
        # Voltage-source constraints (E = -(dc * source_scale)), inductor
        # constraints (a DC short, E = -0.0) with their branch rows, VCVS
        # constraints (cur -= gain * (xe[cp] - xe[cn]) per iterate) and
        # current-source injections (dc * source_scale).
        vs_aff: list[int] = []
        ind_aff: list[int] = []
        ind_k: list[int] = []
        ind_names: list[str] = []
        vg_aff: list[int] = []
        vg_cp: list[int] = []
        vg_cn: list[int] = []
        n_inj = 0
        # Capacitances the DC program leaves open, in netlist order:
        # (i, j, element name, kind) — kind -1 for a capacitor, else an
        # index into _CAP_KINDS.  The transient companion stamps use them.
        cap_terms: list[tuple[int, int, str, int]] = []
        # MOSFET slots: the devices' element indices and ground-extended
        # (d, g, s, b) slots; each matrix entry's position, device value
        # (dev * 4 + kind, or dev * 5 + cap kind) and sign.
        mos_names: list[str] = []
        mos_k: list[int] = []
        mos_xe: list[tuple[int, int, int, int]] = []
        j_mos: tuple[list[int], list[int], list[float]] = ([], [], [])
        g_mos: tuple[list[int], list[int], list[float]] = ([], [], [])
        c_mos: tuple[list[int], list[int], list[float]] = ([], [], [])
        # (branch-or-node index, sign, element index) for b_ac.
        b_ac_slots: list[tuple[int, float, int]] = []

        def value(coo: _Coo, row: int, col: int, ei: int, negate=False):
            """An entry holding element ``ei``'s value."""
            slots[ei].append((coo.buffer, coo.append(row, col), negate))

        def constant(coo: _Coo, row: int, col: int, v: float) -> None:
            """An entry holding the constant ``v``."""
            constants.append((coo.buffer, coo.append(row, col), v))

        def mos_entry(coo, mos, row, col, val, sign) -> None:
            """An entry holding device value ``val`` times ``sign``."""
            mos[0].append(coo.append(row, col))
            mos[1].append(val)
            mos[2].append(sign)

        def conductance(coo: _Coo, i: int, j: int, ei: int) -> None:
            """The walk's symmetric two-terminal stamp of ``ei``'s value."""
            if i != GROUND:
                value(coo, i, i, ei)
            if j != GROUND:
                value(coo, j, j, ei)
            if i != GROUND and j != GROUND:
                value(coo, i, j, ei, True)
                value(coo, j, i, ei, True)

        def transconductance(coo, op_, on_, cp, cn, ei) -> None:
            """The walk's transconductance stamp of ``ei``'s value."""
            for row, sign in ((op_, +1.0), (on_, -1.0)):
                if row == GROUND:
                    continue
                if cp != GROUND:
                    value(coo, row, cp, ei, sign < 0)
                if cn != GROUND:
                    value(coo, row, cn, ei, sign > 0)

        def branch(coo: _Coo, p: int, nn: int, k: int) -> None:
            """Voltage-source-style unit cross terms of branch ``k``."""
            if p != GROUND:
                constant(coo, p, k, 1.0)
                constant(coo, k, p, 1.0)
            if nn != GROUND:
                constant(coo, nn, k, -1.0)
                constant(coo, k, nn, -1.0)

        def entry(row: int, sign: float, segment: int, idx: int) -> None:
            """``resid[row] += sign * value`` (ground rows dropped)."""
            if row != GROUND:
                r_rows.append(row)
                r_signs.append(sign)
                r_srcs.append((segment, idx))

        def affine(a: str, b: str, ei: int | None = None) -> int:
            """An affine current over nets ``a``, ``b``: ``C`` is element
            ``ei``'s value, or 1.0 for a constraint row."""
            src = len(aff_a)
            aff_a.append(xi(a))
            aff_b.append(xi(b))
            if ei is None:
                constants.append((_BUF_AFF, src, 1.0))
            else:
                slots[ei].append((_BUF_AFF, src, False))
            return src

        def pair_current(a: str, b: str, ei: int, i: int, j: int) -> None:
            """cur = coeff*(xe[a]-xe[b]); resid[i] += cur; resid[j] -= cur."""
            src = affine(a, b, ei)
            entry(i, +1.0, _SEG_CUR, src)
            entry(j, -1.0, _SEG_CUR, src)

        def constraint(p: int, nn: int, k: int, a: str, b: str) -> int:
            """A branch row ``k`` between nets ``a`` and ``b``: the unit
            jacobian and G stamps, resid[p] += x[k], resid[nn] -= x[k] and
            resid[k] += cur of a new unit affine current."""
            branch(jac, p, nn, k)
            branch(g, p, nn, k)
            entry(p, +1.0, _SEG_XE, k)
            entry(nn, -1.0, _SEG_XE, k)
            src = affine(a, b)
            entry(k, +1.0, _SEG_CUR, src)
            return src

        for ei, element in enumerate(circuit):
            name = element.name
            op = None
            if isinstance(element, (Resistor, Switch)):
                op = _OP_RES_INV if isinstance(element, Resistor) else _OP_SW_INV
                i, j = index(element.n1), index(element.n2)
                conductance(jac, i, j, ei)
                conductance(g, i, j, ei)
                pair_current(element.n1, element.n2, ei, i, j)
            elif isinstance(element, Capacitor):
                # Open in DC.
                op = _OP_CAP
                i, j = index(element.n1), index(element.n2)
                conductance(c, i, j, ei)
                cap_terms.append((i, j, name, -1))
            elif isinstance(element, CurrentSource):
                op = _OP_DC
                p, nn = index(element.positive), index(element.negative)
                slots[ei].append((_BUF_INJ, n_inj, False))
                entry(p, +1.0, _SEG_INJ, n_inj)
                entry(nn, -1.0, _SEG_INJ, n_inj)
                n_inj += 1
                if p != GROUND:
                    b_ac_slots.append((p, -1.0, ei))
                if nn != GROUND:
                    b_ac_slots.append((nn, +1.0, ei))
            elif isinstance(element, VoltageSource):
                op = _OP_DC
                p, nn = index(element.positive), index(element.negative)
                k = layout.branch(name)
                src = constraint(p, nn, k, element.positive, element.negative)
                slots[ei].append((_BUF_VDC, len(vs_aff), False))
                vs_aff.append(src)
                b_ac_slots.append((k, +1.0, ei))
            elif isinstance(element, Vcvs):
                op = _OP_GAIN
                op_ = index(element.out_positive)
                on_ = index(element.out_negative)
                cp = index(element.ctrl_positive)
                cn = index(element.ctrl_negative)
                k = layout.branch(name)
                # The walk's VCVS stamp order: out rows, then the gain row.
                src = constraint(
                    op_, on_, k, element.out_positive, element.out_negative
                )
                for coo in (jac, g):
                    if cp != GROUND:
                        value(coo, k, cp, ei, True)
                    if cn != GROUND:
                        value(coo, k, cn, ei)
                slots[ei].append((_BUF_GAIN, len(vg_aff), False))
                vg_aff.append(src)
                vg_cp.append(xi(element.ctrl_positive))
                vg_cn.append(xi(element.ctrl_negative))
            elif isinstance(element, Vccs):
                op = _OP_GM
                op_ = index(element.out_positive)
                on_ = index(element.out_negative)
                cp = index(element.ctrl_positive)
                cn = index(element.ctrl_negative)
                transconductance(jac, op_, on_, cp, cn, ei)
                transconductance(g, op_, on_, cp, cn, ei)
                pair_current(
                    element.ctrl_positive, element.ctrl_negative, ei, op_, on_
                )
            elif isinstance(element, Inductor):
                op = _OP_IND
                p, nn = index(element.n1), index(element.n2)
                k = layout.branch(name)
                ind_aff.append(constraint(p, nn, k, element.n1, element.n2))
                ind_k.append(k)
                ind_names.append(name)
                value(c, k, k, ei, True)
            elif isinstance(element, Mosfet):
                d, g_ = index(element.drain), index(element.gate)
                s, b = index(element.source), index(element.bulk)
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
                # The DC jacobian: each row's gm, gds, gmb and gsum terms.
                for row, sign in ((d, +1.0), (s, -1.0)):
                    if row == GROUND:
                        continue
                    for col, kind, ks in (
                        (g_, _KIND_GM, sign),
                        (d, _KIND_GDS, sign),
                        (b, _KIND_GMB, sign),
                        (s, _KIND_GSUM, -sign),
                    ):
                        if col != GROUND:
                            mos_entry(jac, j_mos, row, col, dev * 4 + kind, ks)
                # G: the walk's gm transconductance, gds conductance and gmb
                # transconductance stamps, entry by entry.
                gm = ((d, g_, 1.0), (d, s, -1.0), (s, g_, -1.0), (s, s, 1.0))
                gds = ((d, d, 1.0), (s, s, 1.0), (d, s, -1.0), (s, d, -1.0))
                gmb = ((d, b, 1.0), (d, s, -1.0), (s, b, -1.0), (s, s, 1.0))
                for kind, stamp in ((_KIND_GM, gm), (_KIND_GDS, gds), (_KIND_GMB, gmb)):
                    for row, col, sign in stamp:
                        if row != GROUND and col != GROUND:
                            mos_entry(g, g_mos, row, col, dev * 4 + kind, sign)
                # C and the transient's open capacitances.
                for kind, (t1, t2) in enumerate(
                    ((g_, s), (g_, d), (g_, b), (d, b), (s, b))
                ):
                    for row, col, sign in (
                        (t1, t1, +1.0),
                        (t2, t2, +1.0),
                        (t1, t2, -1.0),
                        (t2, t1, -1.0),
                    ):
                        if row != GROUND and col != GROUND:
                            val = dev * len(_CAP_KINDS) + kind
                            mos_entry(c, c_mos, row, col, val, sign)
                    cap_terms.append((t1, t2, name, kind))
            else:
                raise AnalysisError(
                    f"element type {type(element).__name__} not supported "
                    "by the compiled DC template"
                )
            ops.append(op)

        # np.bincount returns integer zeros for no entries at all; one +0.0
        # entry keeps a program with none (a netlist of capacitors and
        # current sources, say) as float as the walk's zeroed arrays.
        if n and not r_rows:
            entry(0, +1.0, _SEG_XE, n)
        if n and not jac.rows:
            constant(jac, 0, 0, 0.0)

        asarray = np.asarray
        #: Per element index: its value opcode (None for a MOSFET, whose
        #: geometry binds through its device tuple) and every
        #: ``(buffer, position, negate)`` slot the value lands in.
        self.slots = tuple(zip(ops, map(tuple, slots)))
        #: ``(buffer, position, value)`` of every unit and zero stamp.
        self._constants = tuple(constants)
        self._jflat = jac.flat(n)
        self._gflat = g.flat(n)
        self._cflat = c.flat(n)
        self._j_mos_pos, self._j_mos_val, self._j_mos_sign = _mos_arrays(j_mos)
        self._g_mos_pos, self._g_mos_val, self._g_mos_sign = _mos_arrays(g_mos)
        self._c_mos_pos, self._c_mos_val, self._c_mos_sign = _mos_arrays(c_mos)
        self._b_ac_slots = tuple(b_ac_slots)
        # Fused residual layout: buffer offsets, then the entry arrays.
        self.mos_names = tuple(mos_names)
        self._mos_k = tuple(mos_k)
        self._mos_xe = mos_xe
        self._n_inj = n_inj
        self._ids_off = n + 1
        self._inj_off = self._ids_off + len(mos_names)
        self._cur_off = self._inj_off + n_inj
        base = (0, self._ids_off, self._inj_off, self._cur_off)
        self._rr = asarray(r_rows, dtype=np.intp)
        self._r_sign = asarray(r_signs, dtype=float)
        self._r_src = asarray([base[seg] + i for seg, i in r_srcs], dtype=np.intp)
        self._aff_a = asarray(aff_a, dtype=np.intp)
        self._aff_b = asarray(aff_b, dtype=np.intp)
        self._vs_aff = asarray(vs_aff, dtype=np.intp)
        self._ind_aff = asarray(ind_aff, dtype=np.intp)
        self._ind_k = asarray(ind_k, dtype=np.intp)
        self._ind_names = tuple(ind_names)
        self._vg_aff = asarray(vg_aff, dtype=np.intp)
        self._vg_cp = asarray(vg_cp, dtype=np.intp)
        self._vg_cn = asarray(vg_cn, dtype=np.intp)
        self._cap_terms = tuple(cap_terms)

    # -- binding ----------------------------------------------------------

    def bind(self, circuit: Circuit) -> "BoundMna":
        """Fill the value slots from ``circuit`` (same topology required)."""
        if circuit.topology_key() != self.key:
            raise AnalysisError(
                f"circuit {circuit.name!r} does not match the compiled "
                "template's topology"
            )
        return BoundMna(self, circuit)


def _mos_arrays(mos) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A MOSFET entry list's positions, device values and signs as arrays."""
    pos, val, sign = mos
    return (
        np.asarray(pos, dtype=np.intp),
        np.asarray(val, dtype=np.intp),
        np.asarray(sign, dtype=float),
    )


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
        # DC buffers: unit stamps written here, element values by rebind,
        # MOSFET slots per call.
        self._jv = np.zeros(len(t._jflat))
        self._fused = fused = FusedResidual(
            t, t._aff_a, t._aff_b, t._rr, t._r_sign, t._r_src
        )
        self._vdc = np.zeros(len(t._vs_aff))
        self._inj_dc = np.zeros(t._n_inj)
        self._vg_gain = np.zeros(len(t._vg_aff))
        if len(self._vg_gain):
            fused.vcvs = (t._vg_aff, t._vg_cp, t._vg_cn, self._vg_gain)
        self._cond: list[float] = []
        # Small-signal buffers.
        self._gv = np.zeros(len(t._gflat))
        self._cv = np.zeros(len(t._cflat))
        self._b_ac = np.zeros(n, dtype=complex)
        #: The value buffers, indexed by a slot's ``buffer``.
        self._buffers = (
            self._jv,
            fused.c,
            self._vdc,
            self._inj_dc,
            self._vg_gain,
            self._gv,
            self._cv,
        )
        for buf, pos, value in t._constants:
            self._buffers[buf][pos] = value
        self.rebind(circuit)

    def rebind(self, circuit: Circuit) -> "BoundMna":
        """Refresh every element value slot from ``circuit`` (same topology).

        Evaluation loops that rebuild the same testbench topology per
        candidate reuse one :class:`BoundMna` and rebind it — the buffers
        and index structure carry over, only values are re-read.
        """
        t = self.template
        self.circuit = circuit
        self.layout: MnaLayout = t.layout.with_circuit(circuit)
        elements = circuit.elements
        buffers = self._buffers
        for element, (op, targets) in zip(elements, t.slots):
            if targets:
                value = _slot_value(op, element)
                negated = -value
                for buf, pos, negate in targets:
                    buffers[buf][pos] = negated if negate else value
        #: The source scale ``e`` and ``inj`` hold; None forces a refill.
        self._scale = None
        mosfets = [elements[k] for k in t._mos_k]
        #: Each MOSFET's ``(params, w, l, mult)``, which
        #: :meth:`device_arrays` reads.
        self._geometry = geometry = [(e.params, e.w, e.l, e.mult) for e in mosfets]
        #: Whether every multiplier is 1, so a residual's device evaluation
        #: is also the operating points' (see :meth:`device_arrays`).
        self._unit_mult = all(mult == 1 for *_, mult in geometry)
        #: The iterate of the last :meth:`residual` call; None once a value
        #: changed since.
        self._last_x: np.ndarray | None = None
        #: One flat tuple per MOSFET for the model loop (see
        #: :func:`~repro.tech.mosfet.device_currents`): its constants, its
        #: multiplier and its ground-extended terminal slots.
        self._devices = [
            device_constants(params, w, l) + (mult,) + xe
            for (params, w, l, mult), xe in zip(geometry, t._mos_xe)
        ]
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
        :meth:`jacobian` call, and keeps that evaluation, forward-frame
        detail included, for :meth:`device_arrays` at the same ``x``.
        """
        fused = self._fused
        if source_scale != self._scale:
            fused.e[self.template._vs_aff] = -(self._vdc * source_scale)
            fused.inj[:] = self._inj_dc * source_scale
            self._scale = source_scale
        xl = x.tolist()
        xl.append(0.0)
        detail = []
        ids, self._cond = device_currents(self._devices, xl, detail)
        self._last_x = x
        self._last = (xl, ids, detail)
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
        the call, or 0.13-0.18 s of a cold Fig. 2 campaign's 26,231 single
        solves: 12,636 DC (11,826 of them the evaluator's 11x11 benches)
        and 13,595 transient steps (docs/performance.md, "The kernel
        layer").
        """
        return np.linalg.solve(jac, rhs)

    def device_arrays(self, x: np.ndarray) -> tuple[list[float], DeviceArrays]:
        """Every MOSFET at the solution ``x``, and ``x`` as a list, ground last.

        Each device is taken at its multiplied width.  When ``x`` is the
        last :meth:`residual`'s iterate, as a converged Newton loop's
        solution is, and every multiplier is 1, that residual's device
        evaluation is the operating points' own and is reused; so is its
        voltage list.  A NaN vds is the exception: the residual runs it
        reversed, an operating point forward.  Otherwise the devices are
        evaluated again at ``x``.
        """
        t = self.template
        geometry = self._geometry
        caps = [
            capacitance_constants(params, w * mult, l)
            for params, w, l, mult in geometry
        ]
        if x is self._last_x and self._unit_mult:
            xl, ids, detail = self._last
            if not any(vds != vds for _, vds, _, _, _ in detail):
                return xl, DeviceArrays(t._mos_xe, ids, self._cond, detail, caps)
        devices = []
        for (params, w, l, mult), device in zip(geometry, self._devices):
            if mult != 1:
                device = device_constants(params, w * mult, l) + (1,) + device[-4:]
            devices.append(device)
        xl = x.tolist()
        xl.append(0.0)
        detail = []
        ids, cond = device_currents(devices, xl, detail, nan_forward=True)
        return xl, DeviceArrays(t._mos_xe, ids, cond, detail, caps)

    # -- small-signal ------------------------------------------------------

    @property
    def b_ac(self) -> np.ndarray:
        """The AC excitation from the sources' ``ac`` values.

        The program's own buffer, not a copy: read it, do not write it.
        """
        return self._b_ac

    def small_signal(
        self, cond: list[float], caps: list[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """G and C of this bound circuit with its MOSFETs' values in them.

        ``cond`` holds four values per device, ``(gm, gds, gmb, ·)`` (the
        fourth is never read), and ``caps`` five, ``(cgs, cgd, cgb, cdb,
        csb)``, in :attr:`MnaTemplate.mos_names` order.  Each matrix sums
        its ordered entries with one ``np.bincount``.
        """
        t = self.template
        n = t.size
        gv = self._gv
        if len(t._g_mos_pos):
            gv[t._g_mos_pos] = t._g_mos_sign * np.array(cond)[t._g_mos_val]
        cv = self._cv
        if len(t._c_mos_pos):
            cv[t._c_mos_pos] = t._c_mos_sign * np.array(caps)[t._c_mos_val]
        return _cell_sums(t._gflat, gv, n), _cell_sums(t._cflat, cv, n)

    def linearize(self, op) -> LinearizedCircuit:
        """G, C and ``b_ac`` of this bound circuit at the operating point ``op``.

        ``op`` is the :class:`~repro.analysis.dc.DcSolution` of this bound
        circuit, read through its ``device_ops``.  The noise-source list is
        empty: :func:`repro.analysis.smallsignal.linearize` adds it.
        """
        cond = []
        caps = []
        device_ops = op.device_ops
        for name in self.template.mos_names:
            device_op = device_ops.get(name)
            if device_op is None:
                raise AnalysisError(
                    f"no operating point for device {name!r}; "
                    "was the DC solution computed on the same circuit?"
                )
            cond += (device_op.gm, device_op.gds, device_op.gmb, 0.0)
            caps += [getattr(device_op, attr) for attr in _CAP_KINDS]
        g_matrix, c_matrix = self.small_signal(cond, caps)
        return LinearizedCircuit(
            layout=self.layout,
            g_matrix=g_matrix,
            c_matrix=c_matrix,
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
    every slot :attr:`MnaTemplate.slots` lists for that element, with
    :func:`_slot_value`'s arithmetic (``1.0 / r``, and a negated slot as
    ``-value``), and a MOSFET's geometry rebuilds its model tuple; so the
    buffers hold what :meth:`BoundMna.rebind` would read from a netlist
    carrying the values.

    Source ``ac`` values, device parameters and multipliers keep their
    bound values, and ``bound.circuit`` stays the circuit last bound, so
    its elements no longer carry the written values.  A switch's
    conductance follows its phase, so a switch is not writable.
    """

    def __init__(self, bound: BoundMna, indices):
        t = bound.template
        slot_of = {ei: k for k, ei in enumerate(indices)}
        for ei in slot_of:
            if not 0 <= ei < len(t.slots):
                raise AnalysisError(f"no element at index {ei} to write")
        buffers = bound._buffers
        scalars = []
        for ei, k in slot_of.items():
            op, targets = t.slots[ei]
            if op == _OP_SW_INV:
                raise AnalysisError(
                    f"switch {bound.circuit.elements[ei].name!r} is not writable"
                )
            if targets:
                targets = tuple((buffers[buf], pos, neg) for buf, pos, neg in targets)
                scalars.append((k, op, targets))
        #: ``(value index, opcode, [(buffer, position, negate)])`` per element.
        self._scalars = tuple(scalars)
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
        # A written source value reaches ``e`` and ``inj`` on the next refill,
        # and no residual's device evaluation holds the written values.
        bound._scale = None
        bound._last_x = None


# ---------------------------------------------------------------------------
# Template cache.
# ---------------------------------------------------------------------------

#: topology_key -> MnaTemplate.  Bounded: cleared wholesale when it outgrows
#: _TEMPLATE_CACHE_MAX (a sizing loop touches a handful of topologies).
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
