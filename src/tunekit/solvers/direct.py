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

Every point the solver needs is a `cache.Requests` request of its unit-cube
geometry scaled to encoded coordinates. A split requests its two outer
centers, and a refinement step its pending vertices, as one group, whose last
value finishes the split (the low, middle and high children are created, in
that order, and the parent retires) or advances the simplex. The root
rectangle is created when its center's value arrives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..cache import Requests
from ..manager import Solver, check_param
from ..space import CategoricalVariable, Point, SearchSpace
from ..trials import TrialRecord
from .neldermead import SimplexSearch, simplex_rows

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


class DirectSearch(Solver):
    """theta = 0 gives pure DIRECT; positive theta enables hybrid refinement."""

    def __init__(self, space: SearchSpace, theta: float = 0.0):
        check_param("theta", theta, integer=False, minimum=0)
        self._theta = theta
        self._cont = space.continuous_indices
        # a categorical coordinate of the unit cube spans the level indices 0 .. levels - 1
        self._scale = np.array(
            [len(v.levels) - 1 if isinstance(v, CategoricalVariable) else 1 for v in space.variables]
        )
        self._rects: list[Rect] = []
        self._requests = Requests(space)

    def _request_all(self, geometries: Sequence[Sequence[float]], done: Callable[[list[float]], None]) -> None:
        """Request the points of unit-cube geometries as one group."""
        self._requests.request_all(np.asarray(geometries, dtype=float) * self._scale, done)

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

        def advance(values: list[float]) -> None:
            refiner.advance(values)
            rect.best_value = min(rect.best_value, refiner.best_f)

        self._request_all(simplex_rows(np.asarray(rect.center, dtype=float), self._cont, refiner), advance)

    # -- solver contract ------------------------------------------------------

    def ask(self, max_points: int) -> list[Point]:
        if self._requests.idle():
            if self._rects:
                self._plan_wave()
            else:
                root = (0.5,) * len(self._scale)
                self._request_all([root], lambda values: self._add_rect(root, root, values[0]))
        return self._requests.serve(max_points)

    def tell(self, records: Sequence[TrialRecord]) -> None:
        self._requests.deliver(records)

    @property
    def rects(self) -> list[Rect]:
        return list(self._rects)
