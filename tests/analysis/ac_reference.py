"""The per-frequency AC loop, kept as the oracle of the stacked sweep.

This is :func:`repro.analysis.ac.ac_response` as it ran before the sweep
became one stacked ``np.linalg.solve``: one ``system_at(s)`` build and one
solve per frequency.  ``tests/analysis/test_ac_batched.py`` requires the
stacked sweep to reproduce it bit for bit, including the message that
names the first singular frequency.

:func:`free_transfer` is the same loop over a
:class:`~repro.analysis.ac.FreeNodeSystem`, the system the evaluator's
read-outs solve: ``tests/synth/evaluator_reference.py`` builds the
reference evaluator's read-outs on it, and ``test_ac_batched.py`` bounds
it against the whole MNA system's loop.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.ac import FreeNodeSystem
from repro.analysis.smallsignal import LinearizedCircuit
from repro.errors import AnalysisError


def ac_response(linear: LinearizedCircuit, frequencies_hz: np.ndarray) -> np.ndarray:
    """Complex MNA solutions over a sweep, one frequency at a time."""
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    out = np.empty((len(frequencies_hz), linear.size), dtype=complex)
    for row, frequency in enumerate(frequencies_hz):
        s = 2j * math.pi * frequency
        try:
            out[row] = np.linalg.solve(linear.system_at(s), linear.b_ac)
        except np.linalg.LinAlgError as exc:
            raise AnalysisError(f"AC solve failed at {frequency:.3e} Hz") from exc
    return out


def ac_transfer(
    linear: LinearizedCircuit, output_net: str, frequencies_hz: np.ndarray
) -> np.ndarray:
    """Complex transfer to ``output_net`` over a per-frequency sweep."""
    return ac_response(linear, frequencies_hz)[:, linear.index(output_net)]


def free_transfer(
    system: FreeNodeSystem, output_net: str, frequencies_hz: np.ndarray
) -> np.ndarray:
    """Complex transfer to ``output_net`` of a free-node system, per frequency.

    Each frequency builds ``G + s C`` and its right-hand side ``b - s c``
    and solves them on their own.
    """
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    out = np.empty((len(frequencies_hz), system.size), dtype=complex)
    for row, frequency in enumerate(frequencies_hz):
        s = 2j * math.pi * frequency
        matrix = system.g_matrix + s * system.c_matrix
        rhs = system.b_vector - s * system.c_vector
        try:
            out[row] = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise AnalysisError(f"AC solve failed at {frequency:.3e} Hz") from exc
    return out[:, system.index(output_net)]
