"""Point identity: the key under which evaluations are deduplicated.

Two points are the same point iff their encoded coordinates agree after
rounding to `space.KEY_DIGITS` (12) decimal digits, so `IntegerVariable`
rejects a range whose neighbouring values would share a key. The manager
encodes and keys each asked point once and stores the key and the encoded
row on its record; solvers read `TrialRecord.key` and `TrialRecord.encoded`
instead of computing them again, and key the points they build by their
encoded rows (decode_keyed, `sampling.lhs_encoded`); `Requests` matches
the records DIRECT and Nelder-Mead are told to their asks by key.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .space import KEY_DIGITS, Point, SearchSpace, decode_rows, encode

if TYPE_CHECKING:
    from .trials import TrialRecord

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


class Requests:
    """The points a solver waits for, matched by key to the records it is told.

    A request is an encoded row and a callback that takes its point's
    objective value. `request_all` queues a group of rows; `serve` hands out
    the first queued ones, snapping them to points and keys in one decode;
    `deliver` passes a record's objective to every served request of its key,
    in the order they were served, so two requests that snap to one point
    share one record. Once a group's last value arrives, its `done` gets all
    of them in row order. A record is used only for requests already served:
    one whose point is still queued is ignored, so that point is served on a
    later ask and the manager answers it from its cache.
    """

    def __init__(self, space: SearchSpace):
        self._space = space
        self._queue: list[tuple[np.ndarray, Callable[[float], None]]] = []
        self._waiting: dict[CacheKey, list[Callable[[float], None]]] = {}

    def idle(self) -> bool:
        return not self._queue and not self._waiting

    def request_all(self, rows: np.ndarray, done: Callable[[list[float]], None]) -> None:
        values: list = [None] * len(rows)

        def fill(slot: int, value: float) -> None:
            values[slot] = value
            if all(v is not None for v in values):
                done(values)

        for slot, row in enumerate(rows):
            self._queue.append((row, functools.partial(fill, slot)))

    def serve(self, max_points: int) -> list[Point]:
        served = self._queue[:max_points]
        self._queue = self._queue[len(served):]
        keyed = decode_keyed(self._space, np.reshape([row for row, _ in served], (-1, len(self._space.variables))))
        for (_, key), (_, on_value) in zip(keyed, served):
            self._waiting.setdefault(key, []).append(on_value)
        return [p for p, _ in keyed]

    def deliver(self, records: Sequence[TrialRecord]) -> None:
        for rec in records:
            for on_value in self._waiting.pop(rec.key, ()):
                on_value(rec.objective)
