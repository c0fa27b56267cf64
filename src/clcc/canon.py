"""Canonical ordering and canonical JSON.

Cell identifiers are heterogeneous (strings, ints, tuples, frozensets of
other identifiers, and objects with a `canonical_key` method, such as
`CoordSimplex`), so Python's default ordering cannot sort them.
`canon_key` maps any identifier built from those pieces to a totally
ordered key; every deterministic iteration order in the package goes
through it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canon_key(obj: Any) -> tuple:
    if isinstance(obj, str):
        return (0, obj)
    if isinstance(obj, int):
        return (1, obj)
    if isinstance(obj, tuple):
        return (2, tuple(canon_key(x) for x in obj))
    if isinstance(obj, (frozenset, set)):
        return (3, tuple(sorted(canon_key(x) for x in obj)))
    return (4, obj.canonical_key())


def csorted(items) -> list:
    return sorted(items, key=canon_key)


def canonical_json(doc: Any) -> str:
    """Compact JSON with sorted keys; byte-stable for golden files."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def digest(doc: Any) -> str:
    """Short content digest of a JSON-serialisable document."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:16]
