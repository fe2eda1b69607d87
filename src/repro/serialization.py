"""Canonical encoding-size accounting and canonical byte encoding.

The paper's complexity definitions (Definitions 6 and 7) count *bits*
exchanged or multicast by honest nodes.  To measure them we need a
deterministic size model for every message object the protocols send.  We
do not actually ship bytes between simulated nodes (objects are passed by
reference), but :func:`encoded_size_bits` computes the size a reasonable
wire encoding would have, and :func:`canonical_bytes` produces a
deterministic byte string used wherever cryptography needs to hash a
structured message (VRF inputs, signing, Fiat–Shamir transcripts).

Size model
----------
- ``None`` / ``bool``: 8 bits (a tag byte).
- ``int``: 64 bits for values fitting in a machine word, otherwise the
  minimal byte length (covers group elements and hash outputs carried as
  integers).
- ``bytes`` / ``str``: 32-bit length prefix + contents.
- ``float``: 64 bits.
- sequences / sets / dicts: 32-bit length prefix + elements.
- dataclasses: 32-bit type tag + fields in declaration order.
- any object exposing ``encoded_size_bits() -> int`` and/or
  ``canonical_bytes() -> bytes``: delegated to the object.

Compiled sizers
---------------
Size accounting sits on the metrics hot path — every staged envelope is
measured — so :func:`encoded_size_bits` dispatches on the *exact* class
of the object through :data:`_SIZERS`, a table of per-class sizer
functions generated on first sight.  A dataclass gets a closure over its
field names (no per-call ``dataclasses.fields`` introspection, no
``isinstance`` ladder), scalars get leaf sizers.  The ladder below
(:func:`_resolve_sizer`) is consulted once per class and mirrors the
historical ``isinstance`` dispatch order exactly, so subclass behavior
(``bool`` before ``int``, delegation before dataclass) is unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict

_WORD_BITS = 64
_LEN_PREFIX_BITS = 32
_TAG_BITS = 32

# Identity-keyed memo for dataclass and tuple sizes: the same (immutable)
# message object is re-measured many times — one certificate object rides
# along in every envelope that attaches it — and sizing is pure, so each
# object's size is computed once.  Entries pin their object, so a
# recycled id can never alias; deliberately NOT content-keyed, because
# equality is coarser than the size model (``(True,) == (1,)``, but a
# bool encodes 8 bits and an int 64).
_SIZE_BY_ID: dict = {}

#: Entry cap of each serialization-layer memo (sizes, tags, the intern
#: arena).  A table that reaches it is cleared: every entry is pure and
#: recomputable, and the engine clears all three per execution anyway,
#: so the cap only bounds one unusually long execution.
_SIZE_CACHE_LIMIT = 1 << 20


def clear_size_cache() -> None:
    """Release every object pinned by the serialization-layer memos.

    Covers the size memo, the type-tag memo, and the payload intern
    arena.  All three are pure caches, so clearing only costs
    recomputation.  The engine calls this when an execution
    finishes: message objects never recur across executions, so keeping
    them pinned would grow resident memory with every run in a
    long-lived process.
    """
    _SIZE_BY_ID.clear()
    _TAG_BY_ID.clear()
    _INTERN_REPS.clear()


def _int_size_bits(value: int) -> int:
    """Size of an integer: one word, or minimal bytes for big integers."""
    if -(2**63) <= value < 2**63:
        return _WORD_BITS
    return 8 * ((value.bit_length() + 7) // 8)


# -- compiled per-class sizers -----------------------------------------------

#: Exact class -> sizer function.  Populated lazily by _resolve_sizer.
_SIZERS: Dict[type, Callable[[Any], int]] = {}


def _size_tag_byte(obj: Any) -> int:
    return 8


def _size_float(obj: Any) -> int:
    return _WORD_BITS


def _size_bytes(obj: Any) -> int:
    return _LEN_PREFIX_BITS + 8 * len(obj)


def _size_str(obj: Any) -> int:
    return _LEN_PREFIX_BITS + 8 * len(obj.encode("utf-8"))


def _size_sequence(obj: Any) -> int:
    sizers = _SIZERS
    total = _LEN_PREFIX_BITS
    for item in obj:
        sizer = sizers.get(item.__class__)
        total += sizer(item) if sizer is not None else encoded_size_bits(item)
    return total


#: Classes whose content can change under a live tuple that holds them.
_MUTABLE_ITEMS = (list, dict, set, bytearray)


def _memo_size(obj: Any, size: int) -> int:
    if len(_SIZE_BY_ID) >= _SIZE_CACHE_LIMIT:
        _SIZE_BY_ID.clear()
    _SIZE_BY_ID[id(obj)] = (obj, size)
    return size


def _size_tuple(obj: Any) -> int:
    """Sequence size, memoized by identity like a dataclass's: every
    terminating node attaches the one interned commit quorum.  A tuple
    directly holding a mutable item is re-walked on every call."""
    entry = _SIZE_BY_ID.get(id(obj))
    if entry is not None and entry[0] is obj:
        return entry[1]
    size = _size_sequence(obj)
    for item in obj:
        if isinstance(item, _MUTABLE_ITEMS):
            return size
    return _memo_size(obj, size)


def _size_dict(obj: Any) -> int:
    total = _LEN_PREFIX_BITS
    for key, value in obj.items():
        total += encoded_size_bits(key) + encoded_size_bits(value)
    return total


def _size_delegated(obj: Any) -> int:
    return obj.encoded_size_bits()


def _make_dataclass_sizer(cls: type) -> Callable[[Any], int]:
    """A sizer closure over the class's field names: tag + field sizes,
    memoized by object identity."""
    names = tuple(field.name for field in dataclasses.fields(cls))

    def sizer(obj: Any) -> int:
        entry = _SIZE_BY_ID.get(id(obj))
        if entry is not None and entry[0] is obj:
            return entry[1]
        sizers = _SIZERS
        size = _TAG_BITS
        for name in names:
            value = getattr(obj, name)
            child = sizers.get(value.__class__)
            size += child(value) if child is not None \
                else encoded_size_bits(value)
        return _memo_size(obj, size)

    return sizer


def _resolve_sizer(cls: type) -> Callable[[Any], int]:
    """Classify ``cls`` once (same order as the historical ``isinstance``
    ladder), register and return its sizer.

    Raises ``TypeError`` for classes with no defined size model so that
    accounting bugs fail loudly instead of silently under-counting.
    """
    if cls is type(None) or issubclass(cls, bool):
        sizer = _size_tag_byte
    elif issubclass(cls, int):
        sizer = _int_size_bits
    elif issubclass(cls, float):
        sizer = _size_float
    elif issubclass(cls, (bytes, bytearray)):
        sizer = _size_bytes
    elif issubclass(cls, str):
        sizer = _size_str
    elif callable(getattr(cls, "encoded_size_bits", None)):
        sizer = _size_delegated
    elif dataclasses.is_dataclass(cls):
        sizer = _make_dataclass_sizer(cls)
    elif cls is tuple:
        sizer = _size_tuple
    elif issubclass(cls, (tuple, list, set, frozenset)):
        sizer = _size_sequence
    elif issubclass(cls, dict):
        sizer = _size_dict
    else:
        raise TypeError(f"no size model for object of type {cls.__name__}")
    _SIZERS[cls] = sizer
    return sizer


def encoded_size_bits(obj: Any) -> int:
    """Return the canonical encoded size of ``obj`` in bits.

    Raises ``TypeError`` for objects with no defined size model so that
    accounting bugs fail loudly instead of silently under-counting.
    """
    sizer = _SIZERS.get(obj.__class__)
    if sizer is None:
        # Instance-level ``encoded_size_bits`` attributes (not visible on
        # the class) keep the historical delegation behavior.
        size_method = getattr(obj, "encoded_size_bits", None)
        if callable(size_method) and not isinstance(obj, type):
            return size_method()
        sizer = _resolve_sizer(obj.__class__)
    return sizer(obj)


# Per-class memo of dataclass field names, so the hot tagging path skips
# the (surprisingly costly) is_dataclass/fields introspection per call.
_TYPE_TAG_FIELDS: dict = {}

# Leaf classes tagged inline (one tuple, no recursive call) on hot paths.
_SCALAR_TAG_CLASSES = frozenset({int, bool, float, str, bytes, type(None)})

# Identity-keyed memo for *frozen* dataclass tags: the same auth object
# is tagged by every recipient of its message, and a frozen dataclass's
# tag cannot change, so it is built once.  Entries pin their object (no
# id aliasing).  Mutable dataclasses are never memoized — their content
# can change between calls.
_TAG_BY_ID: dict = {}

# Classes whose instances may be tag-memoized (frozen dataclasses).
_TAG_MEMO_CLASSES: set = set()


def type_tagged(value: Any) -> Any:
    """A dict-key wrapper distinguishing values that compare equal but
    encode differently under :func:`canonical_bytes`.

    ``True == 1 == 1.0`` as dict keys, yet their canonical encodings
    differ — so a cache keyed on raw values could return a verdict
    computed for a different byte string.  Tagging every element with its
    class restores the distinction; tuples, frozensets, and dataclasses
    (message/auth objects whose fields feed hashes) are tagged
    recursively.
    """
    cls = value.__class__
    if cls in _SCALAR_TAG_CLASSES:
        return (value, cls)
    if cls is tuple:
        return tuple([
            (item, item.__class__)
            if item.__class__ in _SCALAR_TAG_CLASSES else type_tagged(item)
            for item in value])
    if cls is frozenset:
        # Hashable container whose elements feed canonical_bytes: must be
        # recursed, or frozenset({True}) and frozenset({1}) would alias.
        # (Mutable sets/dicts need no handling — the fallback wrapper is
        # then unhashable, which callers treat as "do not cache".)
        return (cls, frozenset(type_tagged(item) for item in value))
    names = _TYPE_TAG_FIELDS.get(cls)
    if names is None:
        if dataclasses.is_dataclass(cls):
            names = tuple(field.name for field in dataclasses.fields(cls))
            if cls.__dataclass_params__.frozen:
                _TAG_MEMO_CLASSES.add(cls)
        else:
            names = ()
        _TYPE_TAG_FIELDS[cls] = names
    if names:
        if cls in _TAG_MEMO_CLASSES:
            key = id(value)
            entry = _TAG_BY_ID.get(key)
            if entry is not None and entry[0] is value:
                return entry[1]
            tag = (cls,) + tuple([
                type_tagged(getattr(value, name)) for name in names])
            if len(_TAG_BY_ID) >= _SIZE_CACHE_LIMIT:
                _TAG_BY_ID.clear()
            _TAG_BY_ID[key] = (value, tag)
            return tag
        return (cls,) + tuple([
            type_tagged(getattr(value, name)) for name in names])
    return (value, cls)


# -- payload interning --------------------------------------------------------

# Arena of canonical payload representatives, keyed by shallow field
# identity (see intern_payload).  Cleared per execution by
# clear_size_cache.
_INTERN_REPS: dict = {}

#: Class -> field-name tuple for frozen dataclasses, or None for classes
#: intern_payload must pass through (mutable dataclasses, non-dataclasses).
_INTERN_FIELDS: Dict[type, Any] = {}


def _intern_field_key(value: Any) -> Any:
    """One field's contribution to an intern key.

    Scalars are tagged by (value, class) — ``True`` must not alias ``1``.
    Everything else is keyed by *identity*, not content: protocols wrap
    the same shared sub-objects (auth tickets, interned votes) over and
    over, so identity hits cover the repetition that matters without any
    deep content walk — and identity keys can never alias, because an
    arena entry keeps its key objects alive (two simultaneously live
    objects cannot share an id), which also makes the scheme immune to
    in-place mutation of non-scalar fields.  Tuples (vote quorums,
    commit lists) are keyed element-wise so that tuples *of* shared
    objects still match.
    """
    cls = value.__class__
    if cls in _SCALAR_TAG_CLASSES:
        return (value, cls)
    if cls is tuple:
        return (tuple, tuple([_intern_field_key(item) for item in value]))
    return (cls, id(value))


#: Arena lookup alone, for loops that resolve many keys and build (via
#: :func:`intern_by_key`) only on a miss; ``None`` when absent.  Bound
#: once: the arena is only ever cleared in place, never rebound.
interned = _INTERN_REPS.get


def intern_by_key(key: Any, factory: Callable[[], Any]) -> Any:
    """Arena lookup under a caller-built key; build via ``factory`` on miss.

    For call sites that can name the object they are *about* to build
    (e.g. a certificate from an ordered vote quorum) more cheaply than
    building it: an arena hit skips construction entirely.  The caller
    must guarantee (a) equal keys imply observably substitutable objects
    and (b) any ``id()`` appearing in the key belongs to an object the
    built representative keeps alive — that pin is what makes identity
    keys alias-free (see :func:`_intern_field_key`).
    """
    rep = _INTERN_REPS.get(key)
    if rep is None:
        rep = factory()
        if len(_INTERN_REPS) >= _SIZE_CACHE_LIMIT:
            _INTERN_REPS.clear()
        _INTERN_REPS[key] = rep
    return rep


def intern_payload(obj: Any) -> Any:
    """Return the canonical representative of an equal payload.

    Protocols assemble the *same* sub-objects over and over: every node
    builds its own certificate from the (shared) votes it saw, and every
    terminating node re-strips the same commit quorum — O(n) content-equal
    copies of O(n)-sized structures.  Interning collapses them to one
    representative object, so every identity-keyed memo downstream (size
    accounting, verification fronts) hits for all of them.

    Only frozen dataclasses are interned, and a representative is only
    substituted when the candidate's fields are scalar-equal or
    *identical* (see :func:`_intern_field_key`) — the representative is
    then observably indistinguishable from the fresh copy under every
    downstream predicate (sizing, canonical bytes, signature and
    eligibility checks are pure functions of content).  Anything else is
    returned unchanged: interning is an optimization, never a
    requirement.
    """
    cls = obj.__class__
    names = _INTERN_FIELDS.get(cls)
    if names is None:
        if cls not in _INTERN_FIELDS:
            if (dataclasses.is_dataclass(cls)
                    and cls.__dataclass_params__.frozen):
                names = tuple(f.name for f in dataclasses.fields(cls))
            _INTERN_FIELDS[cls] = names
        if names is None:
            return obj
    key = (cls,) + tuple([_intern_field_key(getattr(obj, name))
                          for name in names])
    rep = _INTERN_REPS.get(key)
    if rep is None:
        if len(_INTERN_REPS) >= _SIZE_CACHE_LIMIT:
            _INTERN_REPS.clear()
        _INTERN_REPS[key] = obj
        return obj
    return rep


def _canonical_int(value: int) -> bytes:
    length = max(1, (value.bit_length() + 7) // 8)
    sign = b"-" if value < 0 else b"+"
    return sign + abs(value).to_bytes(length, "big")


def canonical_bytes(obj: Any) -> bytes:
    """Deterministically encode ``obj`` as bytes for hashing.

    The encoding is injective over the types it supports: every value is
    framed with a type byte and a length, so distinct structures cannot
    collide.  It is *not* meant to be a wire format — only a stable input
    for hash functions.
    """
    if obj is None:
        return b"N"
    if isinstance(obj, bool):
        return b"B1" if obj else b"B0"
    if isinstance(obj, int):
        body = _canonical_int(obj)
        return b"I" + len(body).to_bytes(4, "big") + body
    if isinstance(obj, float):
        body = repr(obj).encode("ascii")
        return b"F" + len(body).to_bytes(4, "big") + body
    if isinstance(obj, (bytes, bytearray)):
        return b"Y" + len(obj).to_bytes(4, "big") + bytes(obj)
    if isinstance(obj, str):
        body = obj.encode("utf-8")
        return b"S" + len(body).to_bytes(4, "big") + body
    bytes_method = getattr(obj, "canonical_bytes", None)
    if callable(bytes_method):
        body = bytes_method()
        return b"O" + len(body).to_bytes(4, "big") + body
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        tag = type(obj).__name__.encode("ascii")
        parts = [canonical_bytes(getattr(obj, field.name))
                 for field in dataclasses.fields(obj)]
        body = b"".join(parts)
        return (b"D" + len(tag).to_bytes(2, "big") + tag
                + len(parts).to_bytes(4, "big") + body)
    if isinstance(obj, (tuple, list)):
        parts = [canonical_bytes(item) for item in obj]
        return b"T" + len(parts).to_bytes(4, "big") + b"".join(parts)
    if isinstance(obj, (set, frozenset)):
        parts = sorted(canonical_bytes(item) for item in obj)
        return b"E" + len(parts).to_bytes(4, "big") + b"".join(parts)
    if isinstance(obj, dict):
        parts = sorted(
            canonical_bytes(key) + canonical_bytes(value)
            for key, value in obj.items()
        )
        return b"M" + len(parts).to_bytes(4, "big") + b"".join(parts)
    raise TypeError(f"no canonical encoding for type {type(obj).__name__}")
