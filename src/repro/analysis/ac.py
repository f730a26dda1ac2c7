"""AC (frequency sweep) analysis on a linearized circuit.

The public sweeps (:func:`ac_response`, :func:`ac_transfer`) solve the
whole MNA system.  A read-out that needs only node voltages can solve the
smaller system of :class:`FreeNodes` instead: the node voltages that
grounded independent voltage sources do not fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.mna import GROUND, MnaLayout
from repro.analysis.smallsignal import LinearizedCircuit
from repro.circuit.elements import VoltageSource
from repro.errors import AnalysisError


class FreeNodes:
    """The node voltages of a circuit that an AC sweep must solve for.

    A grounded independent voltage source fixes its other terminal's
    voltage at its ``ac`` value, and its branch row gives back only the
    source's current.  Dropping those nodes and branches leaves the free
    node voltages ``x_k``, which solve

        (G_kk + s C_kk) x_k = b_k - (G_kf + s C_kf) x_f

    for the fixed voltages ``x_f``.  The split depends on the topology
    only, so it is worked out once per bound circuit; :meth:`system`
    slices each pair of G and C matrices.  Any other voltage-defined
    element (a floating source, a VCVS, an inductor) has a branch current
    that node rows read, and is refused.
    """

    def __init__(self, layout: MnaLayout):
        fixed: dict[int, tuple[int, float, str]] = {}
        for element in layout.branch_elements:
            name = element.name
            if not isinstance(element, VoltageSource):
                _refuse(f"{type(element).__name__} {name!r}")
            p, n = layout.index(element.positive), layout.index(element.negative)
            if (p == GROUND) == (n == GROUND):
                _refuse(
                    f"voltage source {name!r} from {element.positive!r} "
                    f"to {element.negative!r}"
                )
            node = n if p == GROUND else p
            if node in fixed:
                _refuse(
                    f"voltage source {name!r}",
                    f"fixes {layout.nets[node]!r}, which {fixed[node][2]!r} "
                    "already fixes",
                )
            fixed[node] = (layout.branch(name), -1.0 if p == GROUND else 1.0, name)
        self.layout = layout
        #: Unknown indices of the fixed nodes, in branch order, and of the
        #: free ones, in index order.
        self.fixed = np.array(list(fixed), dtype=np.intp)
        self.free = np.array(
            [i for i in range(len(layout.nets)) if i not in fixed], dtype=np.intp
        )
        #: Where ``b_ac`` holds each fixed voltage, and its sign.
        self._rows = np.array([row for row, _, _ in fixed.values()], dtype=np.intp)
        self._signs = np.array([sign for _, sign, _ in fixed.values()])
        #: Flat indices of the free rows' free and fixed columns.
        rows = self.free[:, None] * layout.size
        self._kk = (rows + self.free).ravel()
        self._kf = (rows + self.fixed).ravel()
        self._position = {layout.nets[i]: k for k, i in enumerate(self.free)}

    def index(self, net: str) -> int:
        """Position of ``net``'s voltage among the free unknowns."""
        try:
            return self._position[net]
        except KeyError:
            raise AnalysisError(
                f"net {net!r} is not a free node of {self.layout.circuit.name!r}"
            ) from None

    def reduce(self, linear: LinearizedCircuit) -> "FreeNodeSystem":
        """``linear``'s AC system on the free node voltages."""
        return self.system(linear.g_matrix, linear.c_matrix, linear.b_ac)

    def system(
        self, g: np.ndarray, c: np.ndarray, b: np.ndarray
    ) -> "FreeNodeSystem":
        """The AC system of MNA matrices ``g``, ``c`` and excitation ``b`` on
        the free node voltages; none of the three is written or kept."""
        k, f = len(self.free), len(self.fixed)
        x_fixed = self._signs * b[self._rows]
        c_kk = c.take(self._kk).reshape(k, k)
        rows, cols = np.nonzero(c_kk)
        return FreeNodeSystem(
            nodes=self,
            g_matrix=g.take(self._kk).reshape(k, k),
            c_matrix=c_kk,
            b_vector=b[self.free] - np.dot(g.take(self._kf).reshape(k, f), x_fixed),
            c_vector=np.dot(c.take(self._kf).reshape(k, f), x_fixed),
            c_cells=(rows, cols, c_kk[rows, cols][:, None]),
        )


def _refuse(
    element: str, reason: str = "is not a grounded independent voltage source"
) -> None:
    raise AnalysisError(
        f"cannot solve the AC sweep on free node voltages: {element} {reason}"
    )


@dataclass
class FreeNodeSystem:
    """One linearization's AC system on its free node voltages.

    At each ``s`` it is ``(G + s C) x = b - s c``: :attr:`g_matrix` and
    :attr:`c_matrix` are the free rows and columns of the MNA matrices,
    :attr:`b_vector` is ``b_k - G_kf x_f`` and :attr:`c_vector` is
    ``C_kf x_f`` (see :class:`FreeNodes`).  :func:`ac_system_stack` fills
    its matrices and :meth:`excitation` its right-hand sides, both from
    the same ``s = 2j*pi*f``.
    """

    nodes: FreeNodes
    g_matrix: np.ndarray
    c_matrix: np.ndarray
    b_vector: np.ndarray
    c_vector: np.ndarray
    #: C's nonzero cells ``(rows, cols, values)``, the values as a column:
    #: found once, for every stack of this system.
    c_cells: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def size(self) -> int:
        """Number of free node voltages."""
        return len(self.b_vector)

    def index(self, net: str) -> int:
        """Position of ``net``'s voltage among the unknowns."""
        return self.nodes.index(net)

    def excitation(self, s: np.ndarray) -> np.ndarray:
        """The right-hand sides ``b - s c`` at the complex frequencies ``s``
        of a sweep, shape (F, k)."""
        return self.b_vector - s[:, None] * self.c_vector


def ac_system_stack(
    linear: LinearizedCircuit | FreeNodeSystem,
    frequencies_hz: np.ndarray,
    out: np.ndarray | None = None,
    s: np.ndarray | None = None,
) -> np.ndarray:
    """The stacked complex matrices ``G + s_k C``, shape (F, n, n).

    ``linear`` is the whole MNA system or a :class:`FreeNodeSystem`.  Each
    slice is elementwise identical to ``G + s_k * C`` — the broadcastable
    form batched solvers consume.  ``s`` is the sweep's ``2j*pi*f`` when
    the caller already has it.  ``out`` (same shape,
    complex) is filled in place and returned when given, letting tight
    evaluation loops reuse one scratch buffer.  The fill runs
    frequency-last, so an ``out`` that is the transposed (F, n, n) view of
    an (n, n, F) buffer fills contiguous rows; the default allocation is
    such a view.
    """
    if s is None:
        s = 2j * math.pi * np.asarray(frequencies_hz, dtype=float)
    if out is None:
        n = linear.size
        out = np.empty((n, n, len(s)), dtype=complex).transpose(2, 0, 1)
    cells = out.transpose(1, 2, 0)
    # Filled frequency-last: each matrix cell's frequencies are one
    # contiguous row.  G is broadcast along every row, then s*C is added
    # only on the rows of C's nonzero cells.  Bit-identical to the dense
    # ``G + s*C``: zero-C entries are exactly ``g + 0j`` either way, and
    # nonzero entries see the same two-operand complex add — but the
    # sparse update touches ~20% of the entries the dense product would,
    # and C is sparse for every MNA system.
    cells[...] = linear.g_matrix[:, :, None]
    rows, cols, values = linear.c_cells
    if len(rows):
        cells[rows, cols] += s * values
    return out


def ac_system_tensor(
    linears: "list[LinearizedCircuit]",
    frequencies_hz: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Stacked systems for a *batch* of linearizations, shape (B, F, n, n).

    Slice ``[b]`` is :func:`ac_system_stack` of ``linears[b]``; every
    linearization must share the matrix size (same topology).  ``out``
    (same shape, complex) is reused in place when given.
    """
    # No caller left in the package; kept because e2ebench/layers.py wraps it by name.
    if not linears:
        raise AnalysisError("ac_system_tensor needs at least one linearization")
    n = linears[0].size
    if out is None:
        out = np.empty((len(linears), len(frequencies_hz), n, n), dtype=complex)
    for b, linear in enumerate(linears):
        if linear.size != n:
            raise AnalysisError(
                "ac_system_tensor requires same-size systems "
                f"(got {linear.size} and {n})"
            )
        ac_system_stack(linear, frequencies_hz, out=out[b])
    return out


def solve_ac_stack(
    systems: np.ndarray, b_ac: np.ndarray, frequencies_hz: np.ndarray
) -> np.ndarray:
    """Solve a (F, n, n) stack against its excitation, batched.

    ``b_ac`` is one excitation vector (n,) for every frequency, or one per
    frequency (F, n), taken as it is.  One LAPACK call covers the whole
    sweep; each slice's solution is bit-identical to an individual
    ``np.linalg.solve``.  On failure the sweep is replayed slice by slice,
    each against its own excitation, so the raised :class:`AnalysisError`
    names the first singular frequency, exactly like a per-frequency loop.
    """
    rhs = b_ac if b_ac.ndim == 2 else np.broadcast_to(b_ac, systems.shape[:2])
    try:
        return np.linalg.solve(systems, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # Replay to attribute the failure to a frequency.
        for row, frequency in enumerate(np.asarray(frequencies_hz, dtype=float)):
            try:
                np.linalg.solve(systems[row], rhs[row])
            except np.linalg.LinAlgError as exc:
                raise AnalysisError(
                    f"AC solve failed at {frequency:.3e} Hz"
                ) from exc
        raise AnalysisError("AC solve failed")  # pragma: no cover


def ac_response(
    linear: LinearizedCircuit,
    frequencies_hz: np.ndarray,
) -> np.ndarray:
    """Complex solution vectors over a frequency sweep.

    Returns an array of shape ``(len(frequencies), size)`` whose rows are the
    MNA unknowns at each frequency, driven by the circuit's ``ac`` sources.
    The sweep is one ``np.linalg.solve`` over the ``(F, n, n)`` system
    stack, bit-identical to solving each frequency on its own.
    """
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    if len(frequencies_hz) == 0:
        return np.empty((0, linear.size), dtype=complex)
    systems = ac_system_stack(linear, frequencies_hz)
    return solve_ac_stack(systems, linear.b_ac, frequencies_hz)


def ac_transfer(
    linear: LinearizedCircuit,
    output_net: str,
    frequencies_hz: np.ndarray,
    negative_net: str | None = None,
) -> np.ndarray:
    """Complex transfer to ``output_net`` (optionally differential) per Hz.

    The excitation is whatever ``ac`` magnitudes the circuit's sources carry;
    with a single unit-magnitude source this is the transfer function.
    """
    response = ac_response(linear, frequencies_hz)
    i = linear.index(output_net)
    if i == GROUND:
        raise AnalysisError("output_net must not be ground")
    h = response[:, i]
    if negative_net is not None:
        j = linear.index(negative_net)
        if j == GROUND:
            raise AnalysisError("negative_net must not be ground")
        h = h - response[:, j]
    return h


def dc_gain(linear: LinearizedCircuit, output_net: str, negative_net: str | None = None) -> float:
    """Small-signal gain at (near) DC."""
    h = ac_transfer(linear, output_net, np.array([1e-3]), negative_net)
    return float(np.real(h[0]))


def unity_gain_frequency(
    linear: LinearizedCircuit,
    output_net: str,
    negative_net: str | None = None,
    f_min: float = 1e2,
    f_max: float = 1e12,
    points_per_decade: int = 24,
) -> float | None:
    """Frequency where |H| crosses unity (None if it never does)."""
    decades = math.log10(f_max / f_min)
    freqs = np.logspace(
        math.log10(f_min), math.log10(f_max), int(decades * points_per_decade) + 1
    )
    mags = np.abs(ac_transfer(linear, output_net, freqs, negative_net))
    crossing = None
    for k in range(len(freqs) - 1):
        if mags[k] >= 1.0 > mags[k + 1]:
            crossing = k
    if crossing is None:
        return None
    lo, hi = freqs[crossing], freqs[crossing + 1]
    for _ in range(50):
        mid = math.sqrt(lo * hi)
        mag = abs(ac_transfer(linear, output_net, np.array([mid]), negative_net)[0])
        if mag >= 1.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def phase_margin_deg(
    linear: LinearizedCircuit,
    output_net: str,
    negative_net: str | None = None,
) -> float | None:
    """Phase margin of the (loop) transfer at its unity crossing, or None."""
    fu = unity_gain_frequency(linear, output_net, negative_net)
    if fu is None:
        return None
    h = ac_transfer(linear, output_net, np.array([fu]), negative_net)[0]
    return 180.0 + math.degrees(math.atan2(h.imag, h.real))
