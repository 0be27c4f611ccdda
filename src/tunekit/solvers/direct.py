"""DIRECT-style branch and bound over the unit cube, optionally hybridized
with per-rectangle Nelder-Mead refinement.

The space of every variable is mapped onto [0, 1]: continuous and integer
channels use the standard encoding, categorical channels scale the level index
by 1/(level_count - 1). Rectangle geometry stays continuous; snapping to real
points happens only when a center is sent out for evaluation.

Each planning wave selects the rectangles that are nondominated under
(maximize diameter, minimize representative value) and trisects them along
their longest side; the middle child inherits the parent's center value
without re-evaluation. With a positive refinement threshold, a selected
rectangle whose diameter falls below it stops being divided and instead runs
its own simplex search seeded at the rectangle's center; the rectangle is then
represented by the best value its refinement has found.

Every point the solver needs is a request: its unit-cube geometry and a
callback that takes the point's objective value. Requests wait in a queue
until `ask` serves them, snapping the served geometries to points and keys in
one decode, and then under their key until `tell` pops the key of a record
and calls its callbacks in the order they were served; two requests that snap
to one point share one record. A split requests its two outer centers, and a
refinement step its pending vertices, as one group: the last value of the
group to arrive finishes the split (the low, middle and high children are
created, in that order, and the parent retires) or advances the simplex.
The root rectangle is created when its center's value arrives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..cache import CacheKey, decode_keyed
from ..manager import Solver, check_param
from ..space import CategoricalVariable, Point, SearchSpace
from ..trials import TrialRecord
from .neldermead import SimplexSearch

ACTIVE = "active"
REFINING = "refining"
RETIRED = "retired"


def longest_axis(half_widths: Sequence[float]) -> int:
    """Index of the largest half-width; ties go to the lowest channel."""
    best = 0
    for i in range(1, len(half_widths)):
        if half_widths[i] > half_widths[best]:
            best = i
    return best


def split_box(center: Sequence, half_widths: Sequence, axis: int) -> list[tuple[tuple, tuple]]:
    """Trisect a box along one axis into three equal thirds.

    Pure arithmetic on the coordinate type (works on floats and on
    fractions.Fraction for exact checks). Returns (center, half_widths) for
    the low, middle, and high child.
    """
    h3 = half_widths[axis] / 3
    offset = 2 * h3
    children = []
    for shift in (-offset, 0 * offset, offset):
        c = tuple(x + shift if i == axis else x for i, x in enumerate(center))
        h = tuple(h3 if i == axis else x for i, x in enumerate(half_widths))
        children.append((c, h))
    return children


def pareto_select(entries: Sequence[tuple[float, float]]) -> list[int]:
    """Indices of entries nondominated under (max diameter, min value).

    Entries tied on both coordinates keep only the lowest index. Input order
    is the rectangle creation order.
    """
    if not entries:
        return []
    by_diameter: dict[float, list[int]] = {}
    for i, (d, _) in enumerate(entries):
        by_diameter.setdefault(d, []).append(i)
    kept = []
    best_value = math.inf
    for d in sorted(by_diameter, reverse=True):
        group = by_diameter[d]
        vmin = min(entries[i][1] for i in group)
        if vmin < best_value:
            kept.append(min(i for i in group if entries[i][1] == vmin))
            best_value = vmin
    return sorted(kept)


@dataclass
class Rect:
    center: tuple[float, ...]
    half_widths: tuple[float, ...]
    f_center: float = math.inf
    state: str = ACTIVE
    best_value: float = math.inf
    refiner: SimplexSearch | None = None
    diameter: float = field(init=False)

    def __post_init__(self) -> None:
        self.diameter = math.sqrt(sum(h * h for h in self.half_widths))

    @property
    def representative(self) -> float:
        return self.best_value if self.state == REFINING else self.f_center


OnValue = Callable[[float], None]


class DirectSearch(Solver):
    """theta = 0 gives pure DIRECT; positive theta enables hybrid refinement."""

    def __init__(self, space: SearchSpace, theta: float = 0.0):
        check_param("theta", theta, integer=False, minimum=0)
        self._space = space
        self._theta = theta
        self._dims = len(space.variables)
        self._cont = space.continuous_indices
        # a categorical coordinate of the unit cube spans the level indices 0 .. levels - 1
        self._scale = np.array(
            [len(v.levels) - 1 if isinstance(v, CategoricalVariable) else 1 for v in space.variables]
        )
        self._rects: list[Rect] = []
        self._queue: list[tuple[Sequence[float], OnValue]] = []
        self._waiting: dict[CacheKey, list[OnValue]] = {}

    def _request_all(self, geometries: Sequence[Sequence[float]], done: Callable[[list[float]], None]) -> None:
        """Queue one request per geometry; once the last value arrives, call
        `done` with all of them in geometry order."""
        values: list = [None] * len(geometries)

        def fill(slot: int, value: float) -> None:
            values[slot] = value
            if all(v is not None for v in values):
                done(values)

        for slot, geometry in enumerate(geometries):
            self._queue.append((geometry, functools.partial(fill, slot)))

    def _add_rect(self, center: tuple, half_widths: tuple, value: float) -> None:
        self._rects.append(Rect(center, half_widths, f_center=value, best_value=value))

    # -- planning ------------------------------------------------------------

    def _plan_wave(self) -> None:
        live = [r for r in self._rects if r.state != RETIRED]
        for rect in live:
            if rect.state == REFINING:
                self._plan_refine_step(rect)
        for idx in pareto_select([(r.diameter, r.representative) for r in live]):
            rect = live[idx]
            if rect.state != ACTIVE:
                continue
            if self._theta > 0 and rect.diameter < self._theta and self._cont:
                self._start_refining(rect)
            else:
                self._plan_split(rect)

    def _plan_split(self, rect: Rect) -> None:
        children = split_box(rect.center, rect.half_widths, longest_axis(rect.half_widths))

        def finish(outer: list[float]) -> None:
            for (center, half_widths), value in zip(children, (outer[0], rect.f_center, outer[1])):
                self._add_rect(center, half_widths, value)
            rect.state = RETIRED

        self._request_all([children[0][0], children[2][0]], finish)

    def _start_refining(self, rect: Rect) -> None:
        x0 = np.asarray(rect.center, dtype=float)[self._cont]
        rect.refiner = SimplexSearch(x0, edge=rect.diameter)
        rect.state = REFINING
        rect.best_value = rect.f_center
        self._plan_refine_step(rect)

    def _plan_refine_step(self, rect: Rect) -> None:
        refiner = rect.refiner
        assert refiner is not None
        geometries = []
        for u in refiner.pending():
            geometry = np.asarray(rect.center, dtype=float).copy()
            geometry[self._cont] = u
            geometries.append(geometry)

        def advance(values: list[float]) -> None:
            refiner.advance(values)
            rect.best_value = min(rect.best_value, refiner.best_f)

        self._request_all(geometries, advance)

    # -- solver contract ------------------------------------------------------

    def ask(self, max_points: int) -> list[Point]:
        if not self._queue and not self._waiting:
            if self._rects:
                self._plan_wave()
            else:
                root = (0.5,) * self._dims
                self._request_all([root], lambda values: self._add_rect(root, root, values[0]))
        serve = self._queue[:max_points]
        self._queue = self._queue[len(serve):]
        keyed = decode_keyed(self._space, np.reshape([g for g, _ in serve], (-1, self._dims)) * self._scale)
        for (_, key), (_, on_value) in zip(keyed, serve):
            self._waiting.setdefault(key, []).append(on_value)
        return [p for p, _ in keyed]

    def tell(self, records: Sequence[TrialRecord]) -> None:
        for rec in records:
            for on_value in self._waiting.pop(rec.key, ()):
                on_value(rec.objective)

    @property
    def rects(self) -> list[Rect]:
        return list(self._rects)
