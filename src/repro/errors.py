"""Exception hierarchy for the repro library.

Every error raised deliberately by the library derives from
:class:`ReproError` so applications can catch library failures without
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Raised for malformed circuits (unknown nets, duplicate names, ...)."""


class AnalysisError(ReproError):
    """Base class for simulation-engine failures."""


class ConvergenceError(AnalysisError):
    """Raised when an iterative solver (DC Newton, transient) fails to converge."""


class SingularCircuitError(AnalysisError):
    """Raised when the MNA system is singular (floating node, V-source loop)."""


class SpecificationError(ReproError):
    """Raised when a system or block specification is inconsistent."""


class EnumerationError(ReproError):
    """Raised when candidate enumeration is asked for an infeasible target."""


class SynthesisError(ReproError):
    """Raised when block-level synthesis cannot produce a feasible design."""


class CampaignInterrupted(ReproError):
    """Raised when a campaign honours a cancellation at a scenario boundary.

    Every scenario counted in ``completed`` has already committed its
    checkpoint, so the interrupted store resumes byte-identically with
    ``run_campaign(..., resume=True)``.
    """

    def __init__(self, completed: int, total: int):
        self.completed = completed
        self.total = total
        super().__init__(
            f"campaign interrupted after {completed}/{total} scenario(s); "
            "resume with run_campaign(..., resume=True)"
        )


class ServiceError(ReproError):
    """Raised for optimization-service failures (bad requests, transport)."""
