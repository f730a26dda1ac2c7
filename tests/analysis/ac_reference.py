"""The per-frequency AC loop, kept as the oracle of the stacked sweep.

This is :func:`repro.analysis.ac.ac_response` as it ran before the sweep
became one stacked ``np.linalg.solve``: one ``system_at(s)`` build and one
solve per frequency.  ``tests/analysis/test_ac_batched.py`` requires the
stacked sweep to reproduce it bit for bit, including the message that
names the first singular frequency, and ``tests/synth/evaluator_reference.py``
builds the reference evaluator's two sweeps on it.
"""

from __future__ import annotations

import math

import numpy as np

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
