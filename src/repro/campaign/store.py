"""Structured campaign results: JSONL run records and the Walden FoM.

Every scenario of a campaign produces one :class:`CampaignRecord` — a flat,
JSON-serializable summary of the optimization outcome plus the synthesis
accounting needed to audit cross-scenario reuse.  Records deliberately
contain *no wall-clock data*: everything in them is a deterministic function
of the campaign definition, which is what lets the test suite require
byte-identical ``results.jsonl`` files from every execution backend.  Timings live in the separate :class:`repro.campaign.runner.CampaignResult`
object (and the runner's ``meta.json``), where nondeterminism is expected.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.errors import SpecificationError

#: Name of the per-scenario record file inside a campaign store directory.
RESULTS_FILENAME = "results.jsonl"

#: Name of the human-readable comparison report.
REPORT_FILENAME = "report.txt"

#: Name of the (nondeterministic) timing/environment sidecar.
META_FILENAME = "meta.json"


def walden_fom(power_w: float, resolution_bits: int, sample_rate_hz: float) -> float:
    """Walden figure of merit: ``P / (2^K * f_s)`` in J per conversion step.

    The classic energy-per-step metric Barrandon et al. use to compare
    pipeline ADC design points; lower is better.  Resolution enters as the
    target K (the flow sizes every block for K-bit settling/noise, so K is
    the design ENOB).
    """
    return power_w / (2.0**resolution_bits * sample_rate_hz)


@dataclass(frozen=True)
class CampaignRecord:
    """Deterministic summary of one scenario's optimization."""

    #: Stable scenario id (see :attr:`repro.campaign.grid.Scenario.label`).
    label: str
    #: Position in the campaign's expansion order.
    index: int
    resolution_bits: int
    sample_rate_hz: float
    full_scale: float
    #: Technology name and corner tag.
    tech: str
    corner: str
    #: Evaluation path used: 'analytic', 'synthesis' or 'behavioral'.
    mode: str
    #: Winning candidate label, e.g. '4-3-2'.
    winner: str
    #: Ranked (label, total front-end power [W]) pairs, best first.
    rankings: tuple[tuple[str, float], ...]
    #: Winner's Walden figure of merit [J/conversion-step].
    fom_j_per_step: float
    #: True when every synthesized block met its constraints.
    all_feasible: bool
    #: Distinct MDAC blocks this scenario synthesized (0 for analytic).
    unique_blocks: int
    #: Fresh searches without / with a warm start.
    cold_runs: int
    retargeted_runs: int
    #: Blocks served from the campaign's shared in-memory ledger.
    shared_hits: int
    #: Blocks served from the on-disk persistent cache.
    persistent_hits: int
    #: Blocks warm-started from earlier scenarios' results.
    pool_warm_starts: int
    #: Pool warm starts that missed feasibility and re-synthesized cold.
    pool_escalations: int
    #: Behavioral-verification outcome (``None`` for analytic/synthesis
    #: records): a flat dict of plain scalars — draws, seed, winner_source,
    #: samples, cycles, simulated SNDR/ENOB aggregates and the simulated
    #: Walden FoM — deterministic like every other field.
    behavioral: dict | None = None

    @property
    def winner_power_w(self) -> float:
        """The winning candidate's total front-end power [W]."""
        return self.rankings[0][1]

    def to_json(self) -> str:
        """One canonical JSON line (sorted keys, no whitespace).

        Encoded on the first call and kept, so a record's checkpoint and
        its ``results.jsonl`` line are one text.  A record is finished
        when it is built: nothing may change ``behavioral`` afterwards.
        """
        return self._line

    @functools.cached_property
    def _line(self) -> str:
        # The fields hold JSON values already, so no deep copy is needed.
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        payload["rankings"] = [[label, power] for label, power in self.rankings]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "CampaignRecord":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(line)
        payload["rankings"] = tuple(
            (label, float(power)) for label, power in payload["rankings"]
        )
        return cls(**payload)


def write_records(records: Iterable[CampaignRecord], path: str | Path) -> Path:
    """Write records as JSONL (one scenario per line); returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "".join(record.to_json() + "\n" for record in records)
    path.write_text(text, encoding="utf-8")
    return path


def read_records(path: str | Path) -> tuple[CampaignRecord, ...]:
    """Load a JSONL results store written by :func:`write_records`."""
    path = Path(path)
    records: list[CampaignRecord] = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            records.append(CampaignRecord.from_json(line))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise SpecificationError(
                f"{path}:{lineno}: corrupt campaign record ({exc})"
            ) from exc
    return tuple(records)
