"""Candidate enumeration for pipelined ADC stage-resolution configurations.

Implements Section 2 of the paper: enumerate the front-end stage
resolutions ``m1-m2-...`` subject to the bandwidth constraint ``m_i <= 4``,
the area constraint ``m_i >= m_{i+1}``, and the observation that power is
dominated by the stages whose output must still settle to better than 7-bit
accuracy (so only ``K - 7`` effective front-end bits are enumerated).
"""

from repro.enumeration.candidates import PipelineCandidate, enumerate_candidates

__all__ = [
    "PipelineCandidate",
    "enumerate_candidates",
]
