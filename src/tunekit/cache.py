"""Point identity: the key under which evaluations are deduplicated.

Two points are the same point iff their encoded coordinates agree after
rounding to 12 decimal digits. The manager keys each asked point once and
stores the key on its record; solvers read `TrialRecord.key` instead of
keying again.
"""

from __future__ import annotations

from .space import Point, SearchSpace, encode

KEY_DIGITS = 12

CacheKey = tuple[float, ...]


def canonical_key(space: SearchSpace, p: Point) -> CacheKey:
    """Key of a point; raises like encode() for an invalid point."""
    return tuple(round(c, KEY_DIGITS) for c in encode(space, p))
