"""JSON (de)serialization with exact float round-trips.

Backends and elements follow the wire schema

    {"backend": {...}, "data": [[re, im], ...]}

with coefficients flattened row-major in the layout documented in
``backends``; each backend class writes and reads its own descriptor, and
``BACKEND_KINDS`` maps the wire tag ``kind`` to the class.  Python's JSON float
formatting is shortest-round-trip, so encode/decode is exact bit-for-bit.
"""

from __future__ import annotations

from . import backends as bk
from .backends import AlgebraElement, Descriptor, from_pairs, to_pairs

BACKEND_KINDS = {cls.kind: cls for cls in bk.BACKENDS}


def descriptor_from_json(obj: dict) -> Descriptor:
    cls = BACKEND_KINDS.get(obj["kind"])
    if cls is None:
        raise ValueError(f"unknown backend kind {obj['kind']!r}")
    return cls.from_json(obj)


def element_to_json(a: AlgebraElement) -> dict:
    return {"backend": a.backend.to_json(), "data": to_pairs(a.data)}


def element_from_json(obj: dict) -> AlgebraElement:
    return element_data_from_json(descriptor_from_json(obj["backend"]), obj["data"])


def element_data_from_json(desc: Descriptor, pairs) -> AlgebraElement:
    """Element from a bare coefficient pair list (backend given separately)."""
    return AlgebraElement(desc, from_pairs(pairs, desc.shape()))

