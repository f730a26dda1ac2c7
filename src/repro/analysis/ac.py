"""AC (frequency sweep) analysis on a linearized circuit."""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.mna import GROUND
from repro.analysis.smallsignal import LinearizedCircuit
from repro.errors import AnalysisError


def ac_system_stack(
    linear: LinearizedCircuit,
    frequencies_hz: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The stacked complex MNA matrices ``G + s_k C``, shape (F, n, n).

    Each slice is elementwise identical to ``linear.system_at(s_k)`` — the
    broadcastable form batched solvers consume.  ``out`` (same shape,
    complex) is filled in place and returned when given, letting tight
    evaluation loops reuse one scratch buffer.  The fill runs
    frequency-last, so an ``out`` that is the transposed (F, n, n) view of
    an (n, n, F) buffer fills contiguous rows; the default allocation is
    such a view.
    """
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    s = 2j * math.pi * frequencies_hz
    if out is None:
        n = linear.size
        out = np.empty((n, n, len(frequencies_hz)), dtype=complex).transpose(2, 0, 1)
    cells = out.transpose(1, 2, 0)
    # Filled frequency-last: each matrix cell's frequencies are one
    # contiguous row.  G is broadcast along every row, then s*C is added
    # only on the rows of C's nonzero cells.  Bit-identical to the dense
    # ``G + s*C``: zero-C entries are exactly ``g + 0j`` either way, and
    # nonzero entries see the same two-operand complex add — but the
    # sparse update touches ~20% of the entries the dense product would,
    # and C is sparse for every MNA system.
    cells[...] = linear.g_matrix[:, :, None]
    rows, cols = np.nonzero(linear.c_matrix)
    if len(rows):
        cells[rows, cols] += s * linear.c_matrix[rows, cols][:, None]
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
    """Solve a (F, n, n) stack against one excitation vector, batched.

    One LAPACK call covers the whole sweep; each slice's solution is
    bit-identical to an individual ``np.linalg.solve``.  On failure the
    sweep is replayed slice-by-slice so the raised :class:`AnalysisError`
    names the first singular frequency, exactly like a per-frequency loop.
    """
    rhs = np.broadcast_to(b_ac, (systems.shape[0], len(b_ac)))[..., None]
    try:
        return np.linalg.solve(systems, rhs)[..., 0]
    except np.linalg.LinAlgError:
        # Replay to attribute the failure to a frequency.
        for row, frequency in enumerate(np.asarray(frequencies_hz, dtype=float)):
            try:
                np.linalg.solve(systems[row], b_ac)
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
