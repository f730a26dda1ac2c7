"""Content-addressed persistence of synthesis results.

A synthesized block is fully determined by its problem (the part of its
MDAC spec that synthesis reads, ``spec.problem``), the technology, the
search budget/seed, whether the transient verifier ran, and — for
retargeted blocks — the donor design it was warm-started from.  Hashing all
of that yields a *content fingerprint*: two runs that would synthesize the
same block map to the same hex digest, so the second run can load the first
run's result from disk instead of searching again.  Rate sweeps,
designer-rule extraction and CI reruns all hit this cache, and so do specs
of other system specs that pose the same problem.

The module is deliberately free of flow imports: it hashes any dataclass
tree (specs, technologies, sizings) structurally, and stores/loads pickled
results in a directory with atomic writes.  Every entry carries the SHA-256
of its pickle, so corrupt, truncated or unreadable entries degrade to cache
misses, never to errors and never to a different result.

A digest encodes its payload to canonical JSON text in one pass, and
remembers the text of each *deep-frozen* value it encodes (a frozen
dataclass whose fields are exact-type leaves, tuples of them, or other
deep-frozen values), so one technology or spec shared by many digests is
encoded once.  ``tests/engine/persist_reference.py`` keeps the two-pass
encoder it replaced, which the tests require it to match byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import weakref
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any

#: Bump when the fingerprint payload changes shape, or when the search
#: that fills an entry changes (the same payload would then name another
#: block), or when the numbers an entry stores change, even in their last
#: bits; old entries then simply stop matching.  (An entry written in
#: another frame fails its checksum and is a miss already.)  Version 2:
#: the search aims at a 60-degree phase margin, and a settling miss gets
#: one re-search instead of the 1.30x repair ladder.  Version 3: the AC
#: read-outs solve the bench's free node voltages, so an entry's stored
#: margins and cost history change in their last bits.
FORMAT_VERSION = 3

#: Suffix of cache entries.
ENTRY_SUFFIX = ".pkl"

#: Length of the SHA-256 checksum that heads every entry.
_CHECK_BYTES = hashlib.sha256().digest_size


#: Types whose values are immutable and encode by exact type.
_LEAVES = frozenset({float, str, int, bool, type(None)})

#: Stands in for an ``int`` too long for ``str``.  :func:`digest` raises
#: for it once the walk is over, so an error anywhere else in the payload
#: wins, as in the two-pass oracle (which canonicalizes everything before
#: its JSON encoder meets the int).  Escaped text never holds a raw NUL.
_TOO_LONG = "\x00"


class _Memo(weakref.ref):
    """A weak reference to a deep-frozen value, carrying its JSON text."""

    __slots__ = ("key", "text")


def _forget(entry: _Memo) -> None:
    """Drop a dying value's entry, unless a newer entry took its place.

    Callbacks run before the value's memory is freed, so no other value
    can hold its id yet: the check and the pop need no lock.
    """
    if _MEMO.get(entry.key) is entry:
        _MEMO.pop(entry.key, None)


#: ``id(value)`` -> entry, for the deep-frozen values encoded so far.  An
#: entry serves only its own value (``entry() is value``), so an id reused
#: after its value died never sees another value's text.
_MEMO: dict[int, _Memo] = {}

#: Dataclass -> (field names, ``str.format`` template of its JSON object
#: with the fields in key order, whether its instances may be memoized).
_LAYOUTS: dict[type, tuple[tuple[str, ...], str, bool]] = {}


def _layout(cls: type) -> tuple[tuple[str, ...], str, bool]:
    """The :data:`_LAYOUTS` entry of a dataclass.

    Only a class that is itself a ``frozen=True`` dataclass and takes weak
    references may be memoized.
    """
    names = tuple(f.name for f in dataclasses.fields(cls))

    def literal(text: str) -> str:
        return text.replace("{", "{{").replace("}", "}}")

    # A field named "__dataclass__" overrides the class tag, as in the
    # oracle's ``{"__dataclass__": name, **fields}``.
    members = {"__dataclass__": literal(_quote(cls.__name__))}
    members.update((name, "{%d}" % i) for i, name in enumerate(names))
    template = "{{%s}}" % ",".join(
        literal(_quote(key)) + ":" + member for key, member in sorted(members.items())
    )
    params = cls.__dict__.get("__dataclass_params__")
    memoizable = params is not None and params.frozen and cls.__weakrefoffset__ != 0
    return names, template, memoizable


def _int(value: int) -> str:
    try:
        return int.__repr__(value)
    except ValueError:
        return _TOO_LONG


def _settled(value: Any) -> bool:
    """True if ``value`` encodes to the same text for as long as it lives."""
    cls = type(value)
    if cls in _LEAVES:
        return True
    if cls is tuple:
        return all(map(_settled, value))
    entry = _MEMO.get(id(value))
    return entry is not None and entry() is value


def _encode_dataclass(value: Any, layout: tuple[tuple[str, ...], str, bool]) -> str:
    """Encode a dataclass instance, through :data:`_MEMO` if it is frozen.

    The text is remembered only if every field is :func:`_settled` once
    encoded, so a list or a mutable dataclass anywhere inside keeps the
    value out of the memo.
    """
    names, template, memoizable = layout
    if not memoizable:
        return template.format(*[_encode(getattr(value, name)) for name in names])
    entry = _MEMO.get(id(value))
    if entry is not None and entry() is value:
        return entry.text
    texts = []
    settled = True
    for name in names:
        field = getattr(value, name)
        texts.append(_encode(field))
        if settled and type(field) not in _LEAVES:
            settled = _settled(field)
    text = template.format(*texts)
    if settled:
        entry = _Memo(value, _forget)
        entry.key, entry.text = id(value), text
        _MEMO[entry.key] = entry
    return text


def _encode_dict(items: Any) -> str:
    texts = {str(key): _encode(item) for key, item in sorted(items)}
    return "{%s}" % ",".join(
        [_quote(key) + ":" + text for key, text in sorted(texts.items())]
    )


def _encode(value: Any) -> str:
    """Canonical JSON text of ``value``, as :func:`digest` hashes it.

    Floats are rendered with ``float.hex`` so the digest is exact (no
    decimal rounding); dataclasses become name-tagged objects of their
    fields; tuples become arrays; dict keys become ``str(key)``, in sorted
    order.  Unknown objects fall back to ``repr`` — good enough for the
    enum-like leaves that appear in specs.  Exact types dispatch first;
    subclasses take the ``isinstance`` rules of :func:`_encode_other`.
    """
    cls = type(value)
    if cls is float:
        return '"' + value.hex() + '"'
    if cls is str:
        return _quote(value)
    if cls is int:
        return _int(value)
    if cls is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if cls is tuple or cls is list:
        return "[%s]" % ",".join([_encode(item) for item in value])
    if cls is dict:
        return _encode_dict(value.items())
    layout = _LAYOUTS.get(cls)
    if layout is not None:
        return _encode_dataclass(value, layout)
    return _encode_other(value)


def _encode_other(value: Any) -> str:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        layout = _LAYOUTS[type(value)] = _layout(type(value))
        return _encode_dataclass(value, layout)
    if isinstance(value, float):
        return _quote(value.hex())
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join([_encode(item) for item in value])
    if isinstance(value, dict):
        return _encode_dict(value.items())
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        return _int(value)
    if isinstance(value, Path):
        return _quote(str(value))
    return _quote(repr(value))


def digest(payload: Any) -> str:
    """SHA-256 hex digest of the payload's canonical JSON text."""
    text = _encode(payload)
    if _TOO_LONG in text:
        raise ValueError(
            "cannot digest an integer with more digits than "
            "sys.get_int_max_str_digits() allows"
        )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sizing_digest(result: Any) -> str:
    """Digest identifying one *synthesized design* (problem + final sizing).

    Used as the donor token in retarget fingerprints: a retargeted block
    depends on the donor's actual sizing, not just the donor's problem, so
    the chain digest must change whenever the donor design does.
    """
    return digest({"problem": result.spec.problem, "sizing": result.final.sizing})


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

    ``mdac`` is the block's spec; only its ``problem`` is digested, so
    specs that pose one problem share their fingerprints.  ``donor`` is the
    resolved donor :class:`~repro.synth.result.SynthesisResult` for
    retargets, or ``None`` for cold syntheses.
    """
    payload: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "retarget" if donor is not None else "cold",
        "problem": mdac.problem,
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
    (cache entries, campaign manifests/checkpoints, broker acks).
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
