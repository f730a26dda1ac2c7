"""Per-scenario campaign checkpoints: the work queue's completion records.

A campaign store directory gains a ``checkpoints/`` subdirectory with two
files per *completed* scenario:

* ``NNNNN.ledger.pkl`` — the scenario's ledger journal: every
  ``(fingerprint, spec_key, scope, result)`` admission it made into the
  campaign's :class:`~repro.campaign.runner.SynthesisLedger`, in admission
  order (``scope`` is the donor's technology name).  Replaying the
  journal reconstructs the ledger (donor pool order included) exactly as
  it stood after the scenario finished — which is what makes a resumed
  campaign's *remaining* scenarios plan the same warm starts, and
  therefore produce byte-identical records, as an uninterrupted run.  A
  journal holding anything else (the three-field entries of code older
  than donor scoping, say) is unusable, like an unreadable one: its
  scenario re-runs.
* ``NNNNN.json`` — the scenario's deterministic record (the exact
  ``results.jsonl`` line) plus its label.  Written *after* the journal via
  an atomic rename, so the JSON file is the commit marker: a kill between
  the two files leaves no visible checkpoint and the scenario simply
  re-runs.

``NNNNN`` is the scenario's index in the grid's expansion order, so
checkpoints sort into execution order lexicographically.
"""

from __future__ import annotations

import json
import pickle
import shutil
from pathlib import Path
from typing import Any

from repro.campaign.grid import Scenario
from repro.campaign.store import CampaignRecord
from repro.engine.persist import atomic_write_bytes

#: Checkpoint subdirectory inside a campaign store.
CHECKPOINT_DIRNAME = "checkpoints"

#: The broker backend's default directory inside a campaign store
#: (task files, leases, acks).
QUEUE_DIRNAME = "queue"

#: One ledger-journal entry: (fingerprint, spec_key, scope, result).
JournalEntry = tuple[str, str, str, Any]


class CheckpointStore:
    """Scenario-completion records under one campaign store directory."""

    def __init__(self, store_dir: str | Path):
        self.store_dir = Path(store_dir)
        self.directory = self.store_dir / CHECKPOINT_DIRNAME

    def _record_path(self, index: int) -> Path:
        return self.directory / f"{index:05d}.json"

    def _journal_path(self, index: int) -> Path:
        return self.directory / f"{index:05d}.ledger.pkl"

    def write(
        self,
        scenario: Scenario,
        record: CampaignRecord,
        journal: list[JournalEntry],
    ) -> None:
        """Commit one completed scenario (journal first, record last)."""
        atomic_write_bytes(
            self._journal_path(scenario.index),
            pickle.dumps(tuple(journal), protocol=pickle.HIGHEST_PROTOCOL),
        )
        payload = {
            "index": scenario.index,
            "label": scenario.label,
            "record": record.to_json(),
        }
        atomic_write_bytes(
            self._record_path(scenario.index),
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
        )

    def load(
        self, scenario: Scenario
    ) -> tuple[CampaignRecord, tuple[JournalEntry, ...]] | None:
        """Load one scenario's checkpoint, or ``None`` if absent/unusable.

        Any unreadable or mismatching checkpoint, or a journal entry that
        is not a four-field tuple, degrades to "not checkpointed" — the
        scenario re-runs, which is always safe.
        """
        try:
            payload = json.loads(
                self._record_path(scenario.index).read_text(encoding="utf-8")
            )
            if payload.get("label") != scenario.label:
                return None
            record = CampaignRecord.from_json(payload["record"])
            with open(self._journal_path(scenario.index), "rb") as handle:
                journal = tuple(pickle.load(handle))
            if not all(isinstance(e, tuple) and len(e) == 4 for e in journal):
                return None
            return record, journal
        except FileNotFoundError:
            return None
        except (
            OSError,
            json.JSONDecodeError,
            KeyError,
            TypeError,
            ValueError,
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,  # a pickled class moved between code versions
        ):
            return None

    def completed_prefix(
        self, scenarios: tuple[Scenario, ...]
    ) -> list[tuple[Scenario, CampaignRecord, tuple[JournalEntry, ...]]]:
        """The longest checkpointed prefix of this run's scenario sequence.

        Scenarios execute strictly in order, so completions always form a
        prefix; stopping at the first gap (rather than cherry-picking later
        checkpoints) keeps the ledger replay order identical to the
        original execution.
        """
        prefix = []
        for scenario in scenarios:
            loaded = self.load(scenario)
            if loaded is None:
                break
            record, journal = loaded
            prefix.append((scenario, record, journal))
        return prefix

    def clear(self) -> None:
        """Delete all checkpoints (a fresh, non-resuming run starts clean)."""
        shutil.rmtree(self.directory, ignore_errors=True)


__all__ = ["CHECKPOINT_DIRNAME", "QUEUE_DIRNAME", "CheckpointStore"]
