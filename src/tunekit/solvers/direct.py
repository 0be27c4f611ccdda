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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..cache import CacheKey, canonical_key
from ..manager import Solver, check_param
from ..space import CategoricalVariable, Point, SearchSpace, decode
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
    index: int
    center: tuple[float, ...]
    half_widths: tuple[float, ...]
    f_center: float = math.inf
    state: str = ACTIVE
    best_value: float = math.inf
    refiner: SimplexSearch | None = None

    @property
    def diameter(self) -> float:
        return math.sqrt(sum(h * h for h in self.half_widths))

    @property
    def representative(self) -> float:
        return self.best_value if self.state == REFINING else self.f_center


@dataclass
class _Request:
    geometry: np.ndarray
    key: CacheKey
    point: Point
    kind: str  # "root" | "split_lo" | "split_hi" | "refine"
    payload: object = None


@dataclass
class _Split:
    parent: Rect
    children: list[tuple[tuple, tuple]]
    lo_value: float | None = None
    hi_value: float | None = None


@dataclass
class _RefineWait:
    rect: Rect
    values: list[float | None] = field(default_factory=list)


class DirectSearch(Solver):
    """theta = 0 gives pure DIRECT; positive theta enables hybrid refinement."""

    def __init__(self, space: SearchSpace, theta: float = 0.0):
        check_param("theta", theta, integer=False, minimum=0)
        self._space = space
        self._theta = theta
        self._dims = len(space.variables)
        self._cont = space.continuous_indices
        self._rects: list[Rect] = []
        self._queue: list[_Request] = []
        self._in_flight: dict[CacheKey, list[_Request]] = {}
        self._next_index = 0

    # -- geometry <-> points ------------------------------------------------

    def _to_point(self, geometry: Sequence[float]) -> Point:
        coords = np.asarray(geometry, dtype=float).copy()
        for i in self._space.categorical_indices:
            var = self._space.variables[i]
            assert isinstance(var, CategoricalVariable)
            coords[i] = coords[i] * (len(var.levels) - 1)
        return decode(self._space, coords)

    def _request(self, geometry: Sequence[float], kind: str, payload: object = None) -> None:
        point = self._to_point(geometry)
        self._queue.append(
            _Request(np.asarray(geometry, dtype=float), canonical_key(self._space, point), point, kind, payload)
        )

    def _new_rect(self, center: tuple, half_widths: tuple, **kwargs) -> Rect:
        rect = Rect(self._next_index, tuple(center), tuple(half_widths), **kwargs)
        self._next_index += 1
        self._rects.append(rect)
        return rect

    # -- planning ------------------------------------------------------------

    def _plan_wave(self) -> None:
        for rect in self._rects:
            if rect.state == REFINING:
                self._plan_refine_step(rect)
        candidates = [r for r in self._rects if r.state in (ACTIVE, REFINING)]
        entries = [(r.diameter, r.representative) for r in candidates]
        for idx in pareto_select(entries):
            rect = candidates[idx]
            if rect.state != ACTIVE:
                continue
            if self._theta > 0 and rect.diameter < self._theta and self._cont:
                self._start_refining(rect)
            else:
                self._plan_split(rect)

    def _plan_split(self, rect: Rect) -> None:
        axis = longest_axis(rect.half_widths)
        children = split_box(rect.center, rect.half_widths, axis)
        split = _Split(rect, children)
        self._request(children[0][0], "split_lo", split)
        self._request(children[2][0], "split_hi", split)

    def _start_refining(self, rect: Rect) -> None:
        x0 = np.asarray(rect.center, dtype=float)[self._cont]
        rect.refiner = SimplexSearch(x0, edge=rect.diameter)
        rect.state = REFINING
        rect.best_value = rect.f_center
        self._plan_refine_step(rect)

    def _plan_refine_step(self, rect: Rect) -> None:
        assert rect.refiner is not None
        pending = rect.refiner.pending()
        wait = _RefineWait(rect, [None] * len(pending))
        for slot, u in enumerate(pending):
            geometry = np.asarray(rect.center, dtype=float).copy()
            geometry[self._cont] = u
            self._request(geometry, "refine", (wait, slot))

    # -- solver contract ------------------------------------------------------

    def ask(self, max_points: int) -> list[Point]:
        if not self._rects:
            root = self._new_rect((0.5,) * self._dims, (0.5,) * self._dims)
            self._request(root.center, "root", root)
        elif not self._queue and not self._in_flight:
            self._plan_wave()
        serve = self._queue[:max_points]
        self._queue = self._queue[len(serve):]
        points = []
        for req in serve:
            self._in_flight.setdefault(req.key, []).append(req)
            points.append(req.point)
        return points

    def tell(self, records: Sequence[TrialRecord]) -> None:
        for rec in records:
            for req in self._in_flight.pop(rec.key, []):
                self._deliver(req, rec.objective)

    def _deliver(self, req: _Request, value: float) -> None:
        if req.kind == "root":
            rect = req.payload
            rect.f_center = value
            rect.best_value = value
        elif req.kind in ("split_lo", "split_hi"):
            split = req.payload
            if req.kind == "split_lo":
                split.lo_value = value
            else:
                split.hi_value = value
            if split.lo_value is not None and split.hi_value is not None:
                self._finish_split(split)
        else:
            wait, slot = req.payload
            wait.values[slot] = value
            if all(v is not None for v in wait.values):
                wait.rect.refiner.advance(wait.values)
                wait.rect.best_value = min(wait.rect.best_value, wait.rect.refiner.best_f)

    def _finish_split(self, split: _Split) -> None:
        (c_lo, h_lo), (c_mid, h_mid), (c_hi, h_hi) = split.children
        parent = split.parent
        self._new_rect(c_lo, h_lo, f_center=split.lo_value, best_value=split.lo_value)
        self._new_rect(c_mid, h_mid, f_center=parent.f_center, best_value=parent.f_center)
        self._new_rect(c_hi, h_hi, f_center=split.hi_value, best_value=split.hi_value)
        parent.state = RETIRED

    @property
    def rects(self) -> list[Rect]:
        return list(self._rects)
