"""Content-addressed persistence of synthesis results.

A synthesized block is fully determined by its spec, the technology, the
search budget/seed, whether the transient verifier ran, and — for
retargeted blocks — the donor design it was warm-started from.  Hashing all
of that yields a *content fingerprint*: two runs that would synthesize the
same block map to the same hex digest, so the second run can load the first
run's result from disk instead of searching again.  Rate sweeps,
designer-rule extraction and CI reruns all hit this cache.

The module is deliberately free of flow imports: it hashes any dataclass
tree (specs, technologies, sizings) structurally, and stores/loads pickled
results in a directory with atomic writes.  Every entry carries the SHA-256
of its pickle, so corrupt, truncated or unreadable entries degrade to cache
misses, never to errors and never to a different result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

#: Bump when the fingerprint payload changes shape; old entries then
#: simply stop matching.  (An entry written in another frame fails its
#: checksum and is a miss already.)
FORMAT_VERSION = 1

#: Suffix of cache entries.
ENTRY_SUFFIX = ".pkl"

#: Length of the SHA-256 checksum that heads every entry.
_CHECK_BYTES = hashlib.sha256().digest_size


def _canonical(value: Any) -> Any:
    """Recursively convert a value into a JSON-stable structure.

    Floats are rendered with ``float.hex`` so the digest is exact (no
    decimal rounding); dataclasses become name-tagged field dicts; tuples
    become lists.  Unknown objects fall back to ``repr`` — good enough for
    the enum-like leaves that appear in specs.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **fields}
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, Path):
        return str(value)
    return repr(value)


def digest(payload: Any) -> str:
    """SHA-256 hex digest of the canonicalized payload."""
    text = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sizing_digest(result: Any) -> str:
    """Digest identifying one *synthesized design* (spec + final sizing).

    Used as the donor token in retarget fingerprints: a retargeted block
    depends on the donor's actual sizing, not just the donor's spec, so the
    chain digest must change whenever the donor design does.
    """
    return digest({"spec": result.spec, "sizing": result.final.sizing})


def block_fingerprint(
    mdac: Any,
    tech: Any,
    *,
    budget: int,
    seed: int,
    verify_transient: bool,
    donor: Any = None,
    retarget_budget: int = 0,
    retarget_seed: int = 0,
) -> str:
    """Content fingerprint of one synthesis (cold or retargeted).

    ``donor`` is the resolved donor :class:`~repro.synth.result.SynthesisResult`
    for retargets, or ``None`` for cold syntheses.
    """
    payload: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "retarget" if donor is not None else "cold",
        "spec": mdac,
        "tech": tech,
        "verify_transient": bool(verify_transient),
    }
    if donor is None:
        payload["budget"] = budget
        payload["seed"] = seed
    else:
        payload["retarget_budget"] = retarget_budget
        payload["retarget_seed"] = retarget_seed
        payload["donor"] = sizing_digest(donor)
    return digest(payload)


def atomic_write_bytes(path: str | Path, payload: bytes) -> Path:
    """Write ``payload`` to ``path`` via a same-directory temp + rename.

    The rename is atomic on POSIX, so readers only ever observe the file
    absent or complete — the primitive under every durable artifact here
    (cache entries, campaign manifests/checkpoints, work-queue acks).
    Parent directories are created as needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def entry_path(cache_dir: str | Path, fingerprint: str) -> Path:
    """Path of the cache entry for a fingerprint."""
    return Path(cache_dir) / f"{fingerprint}{ENTRY_SUFFIX}"


def store_result(cache_dir: str | Path, fingerprint: str, result: Any) -> Path:
    """Atomically store a result under its fingerprint; returns the path.

    The entry is the SHA-256 of the pickle followed by the pickle itself.
    """
    data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return atomic_write_bytes(
        entry_path(cache_dir, fingerprint), hashlib.sha256(data).digest() + data
    )


def load_result(cache_dir: str | Path, fingerprint: str) -> Any | None:
    """Load a stored result, or ``None`` on a miss or an unreadable entry.

    An entry whose checksum does not match its pickle (truncated,
    byte-flipped, or written in an older frame) is a miss, and so is any
    ``Exception`` raised while unpickling it (a class that moved between
    code versions, say).  The caller recomputes the result and rewrites
    the entry.  ``KeyboardInterrupt`` and ``SystemExit`` propagate.
    """
    try:
        blob = entry_path(cache_dir, fingerprint).read_bytes()
    except OSError:
        return None
    check, data = blob[:_CHECK_BYTES], blob[_CHECK_BYTES:]
    if hashlib.sha256(data).digest() != check:
        return None
    try:
        return pickle.loads(data)
    except Exception:
        # Unpickling calls whatever reconstructors the entry names, so it
        # can raise anything; a cache read must never fail the run.
        return None
