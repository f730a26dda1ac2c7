"""The two-pass digest encoder, kept as the oracle of ``persist.digest``.

:func:`_canonical` is the canonicalizer as it ran before digests were
encoded in one pass: it rebuilds the payload as plain JSON data, and
:func:`digest` hashes ``json.dumps`` of that with sorted keys and compact
separators.  ``tests/engine/test_persist.py`` requires
:func:`repro.engine.persist.digest` to return the same digest for every
payload, and to raise the same exception type where this one raises.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any


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


def text(payload: Any) -> str:
    """The JSON text the oracle hashes."""
    return json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    """SHA-256 hex digest of the canonicalized payload."""
    return hashlib.sha256(text(payload).encode("utf-8")).hexdigest()
