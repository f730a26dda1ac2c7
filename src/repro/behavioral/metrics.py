"""Converter metrics: SNDR/ENOB/SFDR via coherent FFT."""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SpecificationError


def _spectrum(codes: np.ndarray) -> np.ndarray:
    """Magnitude-squared single-sided spectrum of a code record (DC removed)."""
    x = np.asarray(codes, dtype=float)
    x = x - np.mean(x)
    spectrum = np.abs(np.fft.rfft(x)) ** 2
    spectrum[0] = 0.0
    return spectrum


def sndr_db(codes: np.ndarray, signal_bin: int) -> float:
    """Signal-to-noise-and-distortion ratio of a coherent sine capture [dB]."""
    spectrum = _spectrum(codes)
    if not 0 < signal_bin < len(spectrum):
        raise SpecificationError(f"signal_bin {signal_bin} out of range")
    signal = spectrum[signal_bin]
    noise = np.sum(spectrum) - signal
    if noise <= 0.0:
        return float("inf")
    return 10.0 * math.log10(signal / noise)


def enob(codes: np.ndarray, signal_bin: int) -> float:
    """Effective number of bits: (SNDR - 1.76) / 6.02."""
    return (sndr_db(codes, signal_bin) - 1.76) / 6.02


def sfdr_db(codes: np.ndarray, signal_bin: int) -> float:
    """Spurious-free dynamic range [dB]: carrier over the largest spur."""
    spectrum = _spectrum(codes)
    if not 0 < signal_bin < len(spectrum):
        raise SpecificationError(f"signal_bin {signal_bin} out of range")
    signal = spectrum[signal_bin]
    spurs = spectrum.copy()
    spurs[signal_bin] = 0.0
    largest = float(np.max(spurs))
    if largest <= 0.0:
        return float("inf")
    return 10.0 * math.log10(signal / largest)
