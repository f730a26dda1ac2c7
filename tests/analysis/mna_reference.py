"""The per-element MNA walk, kept as the oracle of the compiled stamp program.

This is how the DC Newton system and the small-signal matrices were built
before :mod:`repro.analysis.template` compiled them: an ``isinstance``
dispatch per element and one scalar ``+=`` per stamp, on a layout derived
from the circuit per solve.  The package no longer runs it.

* :class:`WalkAssembly` plugs the walk into
  ``solve_dc(circuit, assembly=WalkAssembly(circuit))``, so a DC solve
  runs the package's Newton loop and homotopies on the walk's systems,
  and packages its operating points with ``package_reference.py``;
* :func:`assemble` is the walk's ``(jacobian, residual)`` at one iterate;
* :func:`linearize` is the walk's small-signal model, noise sources
  included.

``tests/analysis/test_template.py``, ``test_mna_single_path.py``,
``transient_reference.py`` and ``tests/synth/evaluator_reference.py`` use
it; the compiled program must reproduce it byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.dc import DcSolution, solve_dc
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
from repro.constants import KT_ROOM
from repro.errors import AnalysisError, SingularCircuitError
from repro.tech.mosfet import dc_current, flicker_noise_psd, thermal_noise_psd
from tests.analysis import package_reference

# ---------------------------------------------------------------------------
# Stamp helpers.  All skip ground indices transparently.
# ---------------------------------------------------------------------------


def stamp_conductance(matrix: np.ndarray, i: int, j: int, g: float) -> None:
    """Stamp a conductance ``g`` between unknowns ``i`` and ``j``."""
    if i != GROUND:
        matrix[i, i] += g
    if j != GROUND:
        matrix[j, j] += g
    if i != GROUND and j != GROUND:
        matrix[i, j] -= g
        matrix[j, i] -= g


def stamp_transconductance(
    matrix: np.ndarray, op: int, on: int, cp: int, cn: int, gm: float
) -> None:
    """Stamp a VCCS: current gm*(v_cp - v_cn) leaving ``op`` into ``on``."""
    for row, sign_row in ((op, +1.0), (on, -1.0)):
        if row == GROUND:
            continue
        if cp != GROUND:
            matrix[row, cp] += sign_row * gm
        if cn != GROUND:
            matrix[row, cn] -= sign_row * gm


def stamp_voltage_source(
    matrix: np.ndarray, rhs: np.ndarray, p: int, n: int, k: int, value: float
) -> None:
    """Stamp an independent voltage source with branch index ``k``."""
    if p != GROUND:
        matrix[p, k] += 1.0
        matrix[k, p] += 1.0
    if n != GROUND:
        matrix[n, k] -= 1.0
        matrix[k, n] -= 1.0
    rhs[k] += value


def stamp_vcvs(
    matrix: np.ndarray, op: int, on: int, cp: int, cn: int, k: int, gain: float
) -> None:
    """Stamp a VCVS with branch index ``k``: v_op - v_on = gain*(v_cp - v_cn)."""
    if op != GROUND:
        matrix[op, k] += 1.0
        matrix[k, op] += 1.0
    if on != GROUND:
        matrix[on, k] -= 1.0
        matrix[k, on] -= 1.0
    if cp != GROUND:
        matrix[k, cp] -= gain
    if cn != GROUND:
        matrix[k, cn] += gain


def stamp_inductor_branch(
    g_matrix: np.ndarray, c_matrix: np.ndarray, p: int, n: int, k: int, inductance: float
) -> None:
    """Stamp an inductor branch for (G + sC) analyses: v_p - v_n - s*L*i = 0."""
    if p != GROUND:
        g_matrix[p, k] += 1.0
        g_matrix[k, p] += 1.0
    if n != GROUND:
        g_matrix[n, k] -= 1.0
        g_matrix[k, n] -= 1.0
    c_matrix[k, k] -= inductance


# ---------------------------------------------------------------------------
# The DC Newton system.
# ---------------------------------------------------------------------------


def assemble(
    layout: MnaLayout,
    x: np.ndarray,
    gmin: float,
    source_scale: float,
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
            g = 1.0 / element.resistance_at(0.0)
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


class WalkAssembly:
    """The walk behind the ``assembly`` interface of ``solve_dc``.

    Newton asks for a residual at every iterate and a jacobian only when
    the iterate takes a step; the walk builds both at once, so
    :meth:`residual` keeps the jacobian for the following :meth:`jacobian`.
    The layout is derived from the circuit here, once per assembly.
    """

    def __init__(self, circuit: Circuit):
        self.layout = MnaLayout(circuit)
        self._jac: np.ndarray | None = None

    def residual(self, x: np.ndarray, gmin: float, source_scale: float) -> np.ndarray:
        self._jac, resid = assemble(self.layout, x, gmin, source_scale)
        return resid

    def jacobian(self, gmin: float) -> np.ndarray:
        return self._jac

    def newton_solve(self, jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(jac, rhs)

    def operating_points(self, x: np.ndarray) -> dict:
        return package_reference.device_ops(self.layout, x)


def walk_solve_dc(circuit: Circuit, **kwargs) -> DcSolution:
    """``solve_dc`` on the walk: the package's Newton loop, the walk's systems."""
    return solve_dc(circuit, assembly=WalkAssembly(circuit), **kwargs)


# ---------------------------------------------------------------------------
# The small-signal model.
# ---------------------------------------------------------------------------


def linearize(
    circuit: Circuit,
    op: DcSolution | None = None,
    include_noise: bool = True,
) -> LinearizedCircuit:
    """Linearize ``circuit`` around its DC operating point, on the walk.

    Solves DC first (on the walk) if ``op`` is not supplied.
    ``include_noise=False`` leaves the noise-source list empty.
    """
    if op is None:
        op = walk_solve_dc(circuit)
    layout = MnaLayout(circuit)
    n = layout.size
    g_matrix = np.zeros((n, n))
    c_matrix = np.zeros((n, n))
    b_ac = np.zeros(n, dtype=complex)
    noise_sources: list[tuple[str, int, int, object]] = []

    for element in circuit:
        if isinstance(element, Resistor):
            i, j = layout.index(element.n1), layout.index(element.n2)
            g = 1.0 / element.resistance
            stamp_conductance(g_matrix, i, j, g)
            if include_noise:
                psd = 4.0 * KT_ROOM * g

                def resistor_psd(frequency_hz: float, _psd=psd) -> float:
                    return _psd

                noise_sources.append((element.name, i, j, resistor_psd))
        elif isinstance(element, Switch):
            i, j = layout.index(element.n1), layout.index(element.n2)
            g = 1.0 / element.resistance_at(0.0)
            stamp_conductance(g_matrix, i, j, g)
        elif isinstance(element, Capacitor):
            i, j = layout.index(element.n1), layout.index(element.n2)
            c = element.capacitance
            if i != GROUND:
                c_matrix[i, i] += c
            if j != GROUND:
                c_matrix[j, j] += c
            if i != GROUND and j != GROUND:
                c_matrix[i, j] -= c
                c_matrix[j, i] -= c
        elif isinstance(element, Inductor):
            p, nn = layout.index(element.n1), layout.index(element.n2)
            k = layout.branch(element.name)
            stamp_inductor_branch(g_matrix, c_matrix, p, nn, k, element.inductance)
        elif isinstance(element, VoltageSource):
            p, nn = layout.index(element.positive), layout.index(element.negative)
            k = layout.branch(element.name)
            stamp_voltage_source(g_matrix, np.zeros(n), p, nn, k, 0.0)
            b_ac[k] += element.ac
        elif isinstance(element, CurrentSource):
            p, nn = layout.index(element.positive), layout.index(element.negative)
            if p != GROUND:
                b_ac[p] -= element.ac
            if nn != GROUND:
                b_ac[nn] += element.ac
        elif isinstance(element, Vcvs):
            op_, on_ = layout.index(element.out_positive), layout.index(element.out_negative)
            cp, cn = layout.index(element.ctrl_positive), layout.index(element.ctrl_negative)
            stamp_vcvs(g_matrix, op_, on_, cp, cn, layout.branch(element.name), element.gain)
        elif isinstance(element, Vccs):
            op_, on_ = layout.index(element.out_positive), layout.index(element.out_negative)
            cp, cn = layout.index(element.ctrl_positive), layout.index(element.ctrl_negative)
            stamp_transconductance(g_matrix, op_, on_, cp, cn, element.gm)
        elif isinstance(element, Mosfet):
            if element.name not in op.device_ops:
                raise AnalysisError(
                    f"no operating point for device {element.name!r}; "
                    "was the DC solution computed on the same circuit?"
                )
            device_op = op.device_ops[element.name]
            d = layout.index(element.drain)
            g_ = layout.index(element.gate)
            s = layout.index(element.source)
            b = layout.index(element.bulk)
            stamp_transconductance(g_matrix, d, s, g_, s, device_op.gm)
            stamp_conductance(g_matrix, d, s, device_op.gds)
            stamp_transconductance(g_matrix, d, s, b, s, device_op.gmb)
            for (i, j, c) in (
                (g_, s, device_op.cgs),
                (g_, d, device_op.cgd),
                (g_, b, device_op.cgb),
                (d, b, device_op.cdb),
                (s, b, device_op.csb),
            ):
                if c == 0.0:
                    continue
                if i != GROUND:
                    c_matrix[i, i] += c
                if j != GROUND:
                    c_matrix[j, j] += c
                if i != GROUND and j != GROUND:
                    c_matrix[i, j] -= c
                    c_matrix[j, i] -= c
            if include_noise:
                params, w, l = element.params, element.w * element.mult, element.l
                gm_val = device_op.gm

                def mosfet_psd(
                    frequency_hz: float,
                    _params=params,
                    _w=w,
                    _l=l,
                    _gm=gm_val,
                ) -> float:
                    return thermal_noise_psd(_params, _gm) + flicker_noise_psd(
                        _params, _w, _l, _gm, frequency_hz
                    )

                noise_sources.append((element.name, d, s, mosfet_psd))
        else:
            raise AnalysisError(
                f"element type {type(element).__name__} not supported in AC"
            )

    return LinearizedCircuit(
        layout=layout,
        g_matrix=g_matrix,
        c_matrix=c_matrix,
        b_ac=b_ac,
        op=op,
        noise_sources=noise_sources,
    )
