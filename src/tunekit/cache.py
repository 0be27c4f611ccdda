"""Point identity: the key under which evaluations are deduplicated.

Two points are the same point iff their encoded coordinates agree after
rounding to `space.KEY_DIGITS` (12) decimal digits, so `IntegerVariable`
rejects a range whose neighbouring values would share a key. The manager
encodes and keys each asked point once and stores the key and the encoded
row on its record; solvers read `TrialRecord.key` and `TrialRecord.encoded`
instead of computing them again, and key the points they build by their
encoded rows (decode_keyed, `sampling.lhs_encoded`).
"""

from __future__ import annotations

import numpy as np

from .space import KEY_DIGITS, Point, SearchSpace, decode_rows, encode

CacheKey = tuple[float, ...]


def row_key(row: np.ndarray) -> CacheKey:
    """Key of an encoded row; tolist() first, as round() is several times
    faster on Python floats than on numpy scalars."""
    return tuple(round(c, KEY_DIGITS) for c in row.tolist())


def canonical_key(space: SearchSpace, p: Point) -> CacheKey:
    """Key of a point; raises like encode() for an invalid point."""
    return row_key(encode(space, p))


def decode_keyed(space: SearchSpace, rows) -> list[tuple[Point, CacheKey]]:
    """The points that encoded rows snap to, with their keys, in one decode."""
    points, encoded = decode_rows(space, rows)
    return list(zip(points, map(row_key, encoded)))
