"""Enumeration of pipelined-ADC stage-resolution candidates.

Bookkeeping conventions (consistent with the paper's equation
``sum_i (m_i - 1) = K``):

* A stage that resolves ``m_i`` raw bits contributes ``m_i - 1`` *effective*
  bits; the remaining bit is redundancy consumed by the digital-correction
  logic.
* The *front end* comprises the stages whose output residue still needs
  better than ``backend_bits`` (default 7) bits of accuracy, i.e. the
  stages covering the first ``K - backend_bits`` effective bits.  For a
  13-bit converter this gives the paper's seven candidates covering the
  "first 6 bits".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import EnumerationError

#: The paper's accuracy threshold: stages are enumerated while the residue
#: still requires more than this many bits.
DEFAULT_BACKEND_BITS = 7

#: Closed-loop-bandwidth constraint from the paper: m_i <= 4.
DEFAULT_MAX_STAGE_BITS = 4

#: Smallest practical stage: 1.5-bit (2 raw bits).
DEFAULT_MIN_STAGE_BITS = 2


@dataclass(frozen=True)
class PipelineCandidate:
    """A front-end stage-resolution configuration for a K-bit pipeline."""

    #: Raw per-stage resolutions m_i (including the redundancy bit).
    resolutions: tuple[int, ...]
    #: Target converter resolution K in bits.
    total_bits: int
    #: Effective bits the un-enumerated backend must resolve.
    backend_bits: int

    def __post_init__(self) -> None:
        if not self.resolutions:
            raise EnumerationError("candidate needs at least one stage")
        if any(m < 2 for m in self.resolutions):
            raise EnumerationError("stage resolutions must be >= 2 raw bits")

    @property
    def stage_count(self) -> int:
        """Number of enumerated front-end stages."""
        return len(self.resolutions)

    @property
    def effective_bits(self) -> tuple[int, ...]:
        """Effective bits per stage (m_i - 1)."""
        return tuple(m - 1 for m in self.resolutions)

    @property
    def frontend_bits(self) -> int:
        """Total effective bits resolved by the enumerated front end."""
        return sum(self.effective_bits)

    @cached_property
    def label(self) -> str:
        """Human-readable form, e.g. ``"4-3-2"``."""
        return "-".join(str(m) for m in self.resolutions)

    def bits_resolved_before(self, stage_index: int) -> int:
        """Effective bits resolved before stage ``stage_index`` (0-based)."""
        if not 0 <= stage_index < self.stage_count:
            raise EnumerationError(
                f"stage_index {stage_index} out of range for {self.label}"
            )
        return sum(self.effective_bits[:stage_index])

    def input_accuracy_bits(self, stage_index: int) -> int:
        """Bits of accuracy the stage's *input* must carry (K - resolved)."""
        return self.total_bits - self.bits_resolved_before(stage_index)

    def output_accuracy_bits(self, stage_index: int) -> int:
        """Bits of accuracy the stage's *output residue* must settle to."""
        return self.input_accuracy_bits(stage_index) - self.effective_bits[stage_index]

    def stage_gain(self, stage_index: int) -> int:
        """Interstage (residue) gain 2^(m_i - 1)."""
        return 2 ** self.effective_bits[stage_index]

    def __str__(self) -> str:
        return f"{self.label} ({self.total_bits}-bit)"


def enumerate_candidates(
    total_bits: int,
    backend_bits: int = DEFAULT_BACKEND_BITS,
    max_stage_bits: int = DEFAULT_MAX_STAGE_BITS,
    min_stage_bits: int = DEFAULT_MIN_STAGE_BITS,
    monotone: bool = True,
) -> list[PipelineCandidate]:
    """All front-end candidates for a ``total_bits``-bit pipelined ADC.

    Enumerates non-increasing (if ``monotone``) sequences of raw stage
    resolutions in ``[min_stage_bits, max_stage_bits]`` whose effective bits
    sum exactly to ``total_bits - backend_bits``.  For the paper's settings
    and K=13 this returns the seven configurations of Fig. 1.

    Candidates are sorted most-aggressive-first (larger leading stages).
    """
    if total_bits <= backend_bits:
        raise EnumerationError(
            f"total_bits ({total_bits}) must exceed backend_bits ({backend_bits})"
        )
    if not 2 <= min_stage_bits <= max_stage_bits:
        raise EnumerationError("need 2 <= min_stage_bits <= max_stage_bits")

    frontend_target = total_bits - backend_bits
    results: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        if remaining == 0:
            results.append(prefix)
            return
        upper = prefix[-1] if (monotone and prefix) else max_stage_bits
        for m in range(min(upper, max_stage_bits), min_stage_bits - 1, -1):
            effective = m - 1
            if effective <= remaining:
                extend(prefix + (m,), remaining - effective)

    extend((), frontend_target)
    results.sort(reverse=True)
    return [
        PipelineCandidate(resolutions=r, total_bits=total_bits, backend_bits=backend_bits)
        for r in results
    ]
