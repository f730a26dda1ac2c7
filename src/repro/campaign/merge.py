"""Fuse shard stores back into the single-run campaign store.

The inverse of ``run_campaign(..., shard=(k, n))``: given the ``n`` shard
store directories, validate that they belong to the *same* campaign (this
flow's manifest version, equal grid and config digests), that they are all
present exactly once, and that together they cover every scenario of the
grid; then write one merged store whose ``results.jsonl`` and
``report.txt`` are byte-identical to what a single unsharded run of the
same campaign would have produced.  That byte-identity is the whole point
— it is what lets a CI matrix split a grid across runners and still
assert against a single-machine reference.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.campaign.manifest import (
    MANIFEST_VERSION,
    CampaignManifest,
    read_manifest,
    write_manifest,
)
from repro.campaign.report import compose_report, grid_header
from repro.campaign.store import (
    META_FILENAME,
    REPORT_FILENAME,
    RESULTS_FILENAME,
    CampaignRecord,
    read_records,
    write_records,
)
from repro.errors import SpecificationError


def _load_shard(store_dir: Path) -> tuple[CampaignManifest, tuple[CampaignRecord, ...]]:
    manifest = read_manifest(store_dir)
    if manifest is None:
        raise SpecificationError(
            f"{store_dir} is not a campaign store: no manifest.json "
            "(was it produced by repro-adc campaign --out?)"
        )
    results_path = store_dir / RESULTS_FILENAME
    if not results_path.exists():
        raise SpecificationError(
            f"{store_dir} is incomplete: manifest present but no "
            f"{RESULTS_FILENAME} — the shard run did not finish "
            "(re-run it with --resume)"
        )
    records = read_records(results_path)
    expected = list(manifest.shard_scenarios)
    got = [record.label for record in records]
    if got != expected:
        raise SpecificationError(
            f"{store_dir}: results.jsonl does not match its manifest "
            f"(expected scenarios {expected}, found {got})"
        )
    return manifest, records


def merge_shards(
    shard_dirs: Iterable[str | Path],
    out_dir: str | Path | None = None,
) -> tuple[tuple[CampaignRecord, ...], str, CampaignManifest]:
    """Validate and fuse shard stores; optionally write the merged store.

    Returns ``(records, report_text, merged_manifest)`` with records in
    grid expansion order.  The merged manifest is the unsharded ``(1, 1)``
    manifest of the same campaign, so a merged store is indistinguishable
    from (and byte-identical to, minus ``meta.json``) a single-run store.
    """
    directories = [Path(d) for d in shard_dirs]
    if not directories:
        raise SpecificationError("merge needs at least one shard store")
    shards = [_load_shard(directory) for directory in directories]

    reference = shards[0][0]
    seen_indices: dict[int, Path] = {}
    for directory, (manifest, _) in zip(directories, shards):
        if manifest.format_version != MANIFEST_VERSION:
            raise SpecificationError(
                f"cannot merge {directory}: it was written with manifest "
                f"version {manifest.format_version}, not {MANIFEST_VERSION} — "
                "its records come from another version of the flow; rerun "
                "the shard"
            )
        if manifest.grid_digest != reference.grid_digest:
            raise SpecificationError(
                f"cannot merge {directory}: its grid digest "
                f"({manifest.grid_digest[:12]}…) differs from "
                f"{directories[0]} ({reference.grid_digest[:12]}…) — the "
                "shards were run on different grids"
            )
        if manifest.config_digest != reference.config_digest:
            raise SpecificationError(
                f"cannot merge {directory}: its config digest differs from "
                f"{directories[0]} — the shards were run under different "
                "budgets, seeds or verification flags"
            )
        if manifest.shard_count != reference.shard_count:
            raise SpecificationError(
                f"cannot merge {directory}: shard count "
                f"{manifest.shard_count} != {reference.shard_count}"
            )
        if manifest.shard_index in seen_indices:
            raise SpecificationError(
                f"duplicate shard {manifest.shard_index}/"
                f"{manifest.shard_count}: both "
                f"{seen_indices[manifest.shard_index]} and {directory}"
            )
        seen_indices[manifest.shard_index] = directory
    missing = sorted(set(range(1, reference.shard_count + 1)) - set(seen_indices))
    if missing:
        raise SpecificationError(
            f"incomplete shard set: missing shard(s) "
            f"{', '.join(f'{m}/{reference.shard_count}' for m in missing)}"
        )

    by_label = {
        record.label: record for _, records in shards for record in records
    }
    if set(by_label) != set(reference.scenarios):
        extra = sorted(set(by_label) - set(reference.scenarios))
        absent = sorted(set(reference.scenarios) - set(by_label))
        raise SpecificationError(
            "shard records do not cover the grid exactly: "
            f"missing {absent}, unexpected {extra}"
        )
    merged = tuple(by_label[label] for label in reference.scenarios)

    header = grid_header(
        len(merged),
        reference.resolutions,
        reference.sample_rates_hz,
        reference.modes,
        reference.corners,
    )
    report_text = compose_report(header, merged)
    merged_manifest = CampaignManifest(
        grid_digest=reference.grid_digest,
        config_digest=reference.config_digest,
        scenarios=reference.scenarios,
        shard_index=1,
        shard_count=1,
        shard_scenarios=reference.scenarios,
        resolutions=reference.resolutions,
        sample_rates_hz=reference.sample_rates_hz,
        modes=reference.modes,
        corners=reference.corners,
    )

    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        write_records(merged, directory / RESULTS_FILENAME)
        (directory / REPORT_FILENAME).write_text(
            report_text + "\n", encoding="utf-8"
        )
        write_manifest(merged_manifest, directory)
        meta = {
            "merged_from": [str(d) for d in directories],
            "shard_count": reference.shard_count,
        }
        (directory / META_FILENAME).write_text(
            json.dumps(meta, indent=2) + "\n", encoding="utf-8"
        )

    return merged, report_text, merged_manifest


__all__ = ["merge_shards"]
