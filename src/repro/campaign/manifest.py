"""Campaign manifests: the identity card of a results store.

A :class:`CampaignManifest` is written next to ``results.jsonl`` and pins
down *which campaign* a store belongs to: the grid digest (every axis value
and technology, content-hashed), the result-relevant :class:`FlowConfig`
digest, the full scenario sequence, and — for sharded runs — which slice of
that sequence this store covers.  Two operations consume it:

* **resume** — ``run_campaign(..., resume=True)`` refuses to replay
  checkpoints into a store whose grid or config digest differs from the
  requested campaign (a silent mismatch would splice records from two
  different experiments into one report);
* **merge** — ``repro-adc merge`` refuses to fuse shard stores unless all
  manifests agree on the digests and together cover every scenario exactly
  once.

Only *result-relevant* configuration enters the config digest: budgets,
seeds (the synthesis seeds *and* the behavioral Monte-Carlo seed/draw
count — behavioral records are a function of both) and the verification
flag.  Execution knobs (backend, workers, telemetry) are excluded for
the same reason they are excluded from block fingerprints — records are
byte-identical across them — so a campaign may be interrupted under one
backend and resumed under another.
``cache_dir`` is also excluded, but for a different reason: it is a host
path, and pinning it would break resuming a store from another checkout
or machine.  The byte-identity caveat that already applies across
backends applies here too (see the README): rankings and winners never
depend on cache state, but the *accounting* fields of a record
(``persistent_hits`` vs ``cold_runs``) reflect what the persistent cache
held when the scenario ran — so the resumed-equals-uninterrupted
byte-identity guarantee is stated for runs without a shared persistent
cache (``cache_dir=None``), which is how the CI resume smoke runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.campaign.grid import CampaignGrid
from repro.engine.config import FlowConfig
from repro.engine.persist import atomic_write_bytes, digest
from repro.errors import SpecificationError

#: Manifest file name inside a campaign store directory.
MANIFEST_FILENAME = "manifest.json"

#: Bump when the manifest schema or digest payloads change shape, or when
#: records change under an unchanged grid and config.
#: v3: the DC Newton kernel joined the config digest (see config_digest).
#: v4: blocks are keyed on the problem synthesis reads
#: (:class:`~repro.specs.stage.MdacProblem`), so a campaign searches each
#: problem once and its records change.
#: v5: the search aims at a 60-degree phase margin and a settling miss
#: gets one re-search instead of the repair ladder, so blocks change, and
#: synthesis rankings put feasible candidates first.
MANIFEST_VERSION = 5


def grid_digest(grid: CampaignGrid) -> str:
    """Content digest of the full grid definition (axes + technologies)."""
    return digest({"version": MANIFEST_VERSION, "grid": grid})


def config_digest(config: FlowConfig) -> str:
    """Digest of the FlowConfig fields that determine campaign records."""
    return digest(
        {
            "version": MANIFEST_VERSION,
            "budget": config.budget,
            "retarget_budget": config.retarget_budget,
            "seed": config.seed,
            "retarget_seed": config.retarget_seed,
            "verify_transient": bool(config.verify_transient),
            "behavioral_draws": config.behavioral_draws,
            "behavioral_seed": config.behavioral_seed,
            # A literal, kept so stores written before the kernel knob went resume.
            "dc_kernel": "chained",
        }
    )


@dataclass(frozen=True)
class CampaignManifest:
    """Identity and coverage of one campaign results store."""

    #: Content digests pinning the experiment definition.
    grid_digest: str
    config_digest: str
    #: Every scenario label of the full grid, in expansion order.
    scenarios: tuple[str, ...]
    #: This store's shard (1-based index, total count); ``(1, 1)`` for an
    #: unsharded campaign.
    shard_index: int = 1
    shard_count: int = 1
    #: Labels of the scenarios assigned to this shard, in expansion order.
    shard_scenarios: tuple[str, ...] = ()
    #: Human-readable grid summary (display only — the digest is the truth).
    resolutions: tuple[int, ...] = ()
    sample_rates_hz: tuple[float, ...] = ()
    modes: tuple[str, ...] = ()
    corners: tuple[str, ...] = ()
    format_version: int = MANIFEST_VERSION

    def to_json(self) -> str:
        """Canonical JSON (indented for humans, key-sorted for diffing)."""
        payload = {
            "format_version": self.format_version,
            "grid_digest": self.grid_digest,
            "config_digest": self.config_digest,
            "scenarios": list(self.scenarios),
            "shard": {
                "index": self.shard_index,
                "count": self.shard_count,
                "scenarios": list(self.shard_scenarios),
            },
            "grid": {
                "resolutions": list(self.resolutions),
                "sample_rates_hz": list(self.sample_rates_hz),
                "modes": list(self.modes),
                "corners": list(self.corners),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CampaignManifest":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(text)
            shard = payload.get("shard", {})
            grid = payload.get("grid", {})
            return cls(
                grid_digest=payload["grid_digest"],
                config_digest=payload["config_digest"],
                scenarios=tuple(payload["scenarios"]),
                shard_index=int(shard.get("index", 1)),
                shard_count=int(shard.get("count", 1)),
                shard_scenarios=tuple(shard.get("scenarios", ())),
                resolutions=tuple(int(k) for k in grid.get("resolutions", ())),
                sample_rates_hz=tuple(
                    float(r) for r in grid.get("sample_rates_hz", ())
                ),
                modes=tuple(grid.get("modes", ())),
                corners=tuple(grid.get("corners", ())),
                format_version=int(payload.get("format_version", 1)),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise SpecificationError(f"corrupt campaign manifest ({exc})") from exc


def build_manifest(
    grid: CampaignGrid,
    config: FlowConfig,
    shard: tuple[int, int] = (1, 1),
    shard_labels: tuple[str, ...] | None = None,
) -> CampaignManifest:
    """Assemble the manifest for one (grid, config, shard) campaign."""
    labels = tuple(s.label for s in grid.expand())
    if shard_labels is None:
        shard_labels = labels
    return CampaignManifest(
        grid_digest=grid_digest(grid),
        config_digest=config_digest(config),
        scenarios=labels,
        shard_index=shard[0],
        shard_count=shard[1],
        shard_scenarios=tuple(shard_labels),
        resolutions=grid.resolutions,
        sample_rates_hz=grid.sample_rates_hz,
        modes=grid.modes,
        corners=tuple(tag for tag, _ in grid.corners),
    )


def manifest_path(store_dir: str | Path) -> Path:
    """Path of the manifest inside a store directory."""
    return Path(store_dir) / MANIFEST_FILENAME


def write_manifest(manifest: CampaignManifest, store_dir: str | Path) -> Path:
    """Atomically write ``manifest.json`` into the store; returns the path."""
    return atomic_write_bytes(
        manifest_path(store_dir), manifest.to_json().encode("utf-8")
    )


def read_manifest(store_dir: str | Path) -> CampaignManifest | None:
    """Load a store's manifest, or ``None`` when the store has none."""
    path = manifest_path(store_dir)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    return CampaignManifest.from_json(text)


def require_matching_manifest(
    existing: CampaignManifest,
    expected: CampaignManifest,
    store_dir: str | Path,
) -> None:
    """Refuse to resume into a store built for a different campaign.

    Raises :class:`SpecificationError` naming exactly which identity field
    diverged — the error the manifest exists to make loud.  A store of
    another :data:`MANIFEST_VERSION` is refused for its version alone: both
    digests embed the version, so they differ too.
    """
    mismatches: list[str] = []
    if existing.format_version != expected.format_version:
        mismatches.append(
            f"format version (store {existing.format_version}, requested "
            f"{expected.format_version} — written by another version of the "
            "flow, whose records differ)"
        )
    else:
        if existing.grid_digest != expected.grid_digest:
            mismatches.append(
                "grid digest "
                f"(store {existing.grid_digest[:12]}…, requested "
                f"{expected.grid_digest[:12]}… — different axes or technologies)"
            )
        if existing.config_digest != expected.config_digest:
            mismatches.append(
                "config digest "
                f"(store {existing.config_digest[:12]}…, requested "
                f"{expected.config_digest[:12]}… — different budgets, seeds, "
                "behavioral draws or verification flag, or a store written by "
                "the removed batched DC kernel)"
            )
    if (existing.shard_index, existing.shard_count) != (
        expected.shard_index,
        expected.shard_count,
    ):
        mismatches.append(
            f"shard (store {existing.shard_index}/{existing.shard_count}, "
            f"requested {expected.shard_index}/{expected.shard_count})"
        )
    if mismatches:
        raise SpecificationError(
            f"cannot resume into {Path(store_dir)}: the store's manifest does "
            "not match the requested campaign — mismatched "
            + "; ".join(mismatches)
            + ".  Use a fresh --out directory (or drop --resume to restart "
            "this one from scratch)."
        )


__all__ = [
    "MANIFEST_FILENAME",
    "MANIFEST_VERSION",
    "CampaignManifest",
    "build_manifest",
    "config_digest",
    "grid_digest",
    "manifest_path",
    "read_manifest",
    "require_matching_manifest",
    "write_manifest",
]
