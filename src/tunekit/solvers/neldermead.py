"""Variable-shape simplex search over the unit cube.

SimplexSearch is a resumable state machine: pending() lists the points whose
values are needed next, advance() feeds them back. That single implementation
is driven by nm_minimize_many(), which runs several searches in lockstep with
one batched call per step (Bayes refines its proposals with it), through the
ask/tell contract by NelderMeadSolver, and per-rectangle by the DIRECT hybrid.

Candidates are clipped to [0, 1]^d before evaluation. A candidate that lands
exactly on an existing vertex after clipping is not evaluated; it is treated
as arbitrarily bad, which pushes the iteration toward an inside contraction
(and a failed contraction toward a shrink).

A simplex holds d + 1 vertices of d coordinates, a few dozen numbers, so the
engine keeps them as Python floats: a numpy call would cost more than its
arithmetic. Each step does the float operations of the array code it
replaced in the same order (sums from 0.0 in row order, as np.add.reduce
along axis 0; clipping as np.minimum(np.maximum(x, 0), 1)), so a search takes
the same path bit for bit. Only the degeneracy test calls numpy, for
np.linalg.det.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import add, sub
from typing import Callable, Sequence

import numpy as np

from ..cache import Requests
from ..manager import Solver, check_param
from ..sampling import SampleRequest, lhs_design, lhs_encoded
from ..space import Point, SearchSpace
from ..trials import TrialRecord

REFLECT = 1.0
EXPAND = 2.0
CONTRACT = 0.5
SHRINK = 0.5

DEGENERATE_VOLUME = 1e-12
REINIT_EDGE = 0.05


def _clipped(row: list[float]) -> list[float]:
    """row clipped to [0, 1] as np.minimum(np.maximum(row, 0), 1) clips it:
    NaN stays NaN and -0.0 becomes 0.0."""
    return [0.0 if v <= 0.0 else 1.0 if v > 1.0 else v for v in row]


def _axis_vertices(x0: list[float], edge: float) -> list[list[float]]:
    """x0 plus one offset vertex per axis, stepping away from the nearer wall."""
    moved = _clipped([v + (edge if v + edge <= 1.0 else -edge) for v in x0])
    vertices = [x0]
    for i, v in enumerate(moved):
        vertex = list(x0)
        vertex[i] = v
        vertices.append(vertex)
    return vertices


def _centroid(rows: list[list[float]]) -> list[float]:
    """The mean of the rows as np.mean(rows, axis=0) takes it: each coordinate
    summed from 0.0 in row order, then divided by the row count."""
    total = [0.0] * len(rows[0])
    for row in rows:
        total = list(map(add, total, row))
    n = len(rows)
    return [t / n for t in total]


class SimplexSearch:
    """The vertices are lists of Python floats (see the module docstring),
    kept sorted by value, best first, with their values in a list of the same
    order. `sorted` orders them, and it is stable: tied vertices keep their
    order, and a NaN value, which compares false with everything, lands where
    the merge puts it. pending() is a (k, d) array, one row per point whose
    value is needed next, and advance() takes their k values in row order."""

    def __init__(
        self,
        x0: np.ndarray | None = None,
        edge: float = 0.1,
        vertices: Sequence[np.ndarray] | None = None,
    ):
        if vertices is not None:
            self._verts = [np.asarray(v, dtype=float).tolist() for v in vertices]
        else:
            if x0 is None:
                raise ValueError("need x0 or explicit vertices")
            self._verts = _axis_vertices(np.asarray(x0, dtype=float).tolist(), float(edge))
        self.iterations = 0
        self.best_f = math.inf
        self._best_row: list[float] | None = None
        self._fs: list[float] = []
        self._gen = self._main()
        self._pending: list[list[float]] = next(self._gen)

    @property
    def best_x(self) -> np.ndarray | None:
        return None if self._best_row is None else np.array(self._best_row)

    def pending(self) -> np.ndarray:
        return np.array(self._pending)

    def advance(self, values: Sequence[float]) -> None:
        if len(values) != len(self._pending):
            raise ValueError(f"expected {len(self._pending)} values, got {len(values)}")
        values = [float(f) for f in values]
        for x, f in zip(self._pending, values):
            if f < self.best_f:
                self.best_f = f
                self._best_row = x
        self._pending = self._gen.send(values)

    def value_spread(self) -> float:
        if not self._fs:
            return math.inf
        return max(self._fs) - min(self._fs)

    # -- internals ---------------------------------------------------------
    # No vertex list is changed in place once built, so pending rows and the
    # best row can be shared without copies.

    def _collides(self, x: list[float]) -> bool:
        first = x[0]  # rules out most vertices before the full test
        for vertex in self._verts:
            if abs(vertex[0] - first) < 1e-15 and all(abs(v - c) < 1e-15 for v, c in zip(vertex, x)):
                return True
        return False

    def _sort(self) -> None:
        order = sorted(range(len(self._fs)), key=self._fs.__getitem__)
        self._verts = [self._verts[i] for i in order]
        self._fs = [self._fs[i] for i in order]

    def _is_degenerate(self) -> bool:
        """Shape degeneracy: volume vanishing relative to the simplex's own
        scale. A uniformly shrunk simplex is converging, not degenerate, so
        the volume is normalized by the longest edge length before comparing
        to the threshold."""
        if len(self._verts) < 2:
            return True
        v0 = self._verts[0]
        basis = [list(map(sub, vertex, v0)) for vertex in self._verts[1:]]
        lengths = list(map(abs, chain.from_iterable(basis)))
        if math.isnan(sum(lengths)):
            return False  # ndarray.max gives a NaN scale, and no comparison with NaN holds
        scale = max(lengths)
        if scale == 0.0:
            return True
        m = len(basis)
        volume = abs(float(np.linalg.det(basis))) / math.factorial(m)
        return volume / scale**m < DEGENERATE_VOLUME

    def _main(self):
        self._fs = list((yield self._verts))
        while True:
            self._sort()
            if self._is_degenerate():
                self._verts = _axis_vertices(self._verts[0], REINIT_EDGE)
                new_fs = yield self._verts[1:]
                self._fs = [self._fs[0]] + list(new_fs)
                self._sort()
            self.iterations += 1
            verts, fs = self._verts, self._fs
            worst = verts[-1]
            f_worst = fs[-1]
            centroid = _centroid(verts[:-1])

            xr = _clipped([c + REFLECT * (c - w) for c, w in zip(centroid, worst)])
            fr = math.inf if self._collides(xr) else (yield [xr])[0]

            if fr < fs[0]:
                xe = _clipped([c + EXPAND * (c - w) for c, w in zip(centroid, worst)])
                fe = math.inf if self._collides(xe) else (yield [xe])[0]
                if fe < fr:
                    verts[-1], fs[-1] = xe, fe
                else:
                    verts[-1], fs[-1] = xr, fr
            elif fr < fs[-2]:
                verts[-1], fs[-1] = xr, fr
            else:
                if fr < f_worst:  # outside contraction
                    xc = _clipped([c + CONTRACT * (r - c) for c, r in zip(centroid, xr)])
                    fc = math.inf if self._collides(xc) else (yield [xc])[0]
                    accepted = fc <= fr
                else:  # inside contraction
                    xc = _clipped([c - CONTRACT * (c - w) for c, w in zip(centroid, worst)])
                    fc = math.inf if self._collides(xc) else (yield [xc])[0]
                    accepted = fc < f_worst
                if accepted:
                    verts[-1], fs[-1] = xc, fc
                else:  # shrink toward the best vertex
                    best = verts[0]
                    shrunk = [_clipped([b + SHRINK * (v - b) for b, v in zip(best, vertex)]) for vertex in verts[1:]]
                    new_fs = yield shrunk
                    verts[1:] = shrunk
                    self._fs = [fs[0]] + list(new_fs)


def simplex_rows(template: np.ndarray, channels: Sequence[int], search: SimplexSearch) -> np.ndarray:
    """The template row once per pending point of the search, with the
    point's coordinates placed in the given channels."""
    pending = search.pending()
    rows = np.repeat(template[None, :], len(pending), axis=0)
    rows[:, channels] = pending
    return rows


def nm_minimize_many(
    fn_rows: Callable[[np.ndarray, np.ndarray], Sequence[float]],
    starts: Sequence[np.ndarray],
    edge: float = 0.1,
    max_iters: int = 200,
) -> list[tuple[np.ndarray, float, int]]:
    """Drive one SimplexSearch per start in lockstep; returns (best_x, best_f,
    iterations) per start.

    Each step stacks the pending points of every active search into one array
    and makes a single fn_rows(rows, owners) call, where owners[i] is the
    index of the start whose search asked for rows[i]; it returns one value
    per row. A search leaves the batch once it has run max_iters iterations or
    every vertex holds the same value, so each search takes the path it would
    take alone."""
    searches = [SimplexSearch(x0, edge=edge) for x0 in starts]
    active = [i for i, s in enumerate(searches) if s.iterations < max_iters]
    while active:
        pending = [searches[i]._pending for i in active]
        rows = np.array([row for points in pending for row in points])
        owners = np.array([i for i, points in zip(active, pending) for _ in points])
        values = np.asarray(fn_rows(rows, owners), dtype=float).tolist()
        offset = 0
        for i, points in zip(active, pending):
            searches[i].advance(values[offset : offset + len(points)])
            offset += len(points)
        active = [
            i
            for i in active
            if searches[i].iterations < max_iters
            and not (searches[i].iterations > 0 and searches[i].value_spread() <= 0.0)
        ]
    return [(s.best_x, s.best_f, s.iterations) for s in searches]


class NelderMeadSolver(Solver):
    """Simplex search over the continuous channels of a space; integer and
    categorical channels stay frozen at the (snapped) start point. Each step's
    pending points are one group of a `cache.Requests` queue, served over as
    many asks as max_points needs; the last of their values advances it."""

    def __init__(
        self,
        space: SearchSpace,
        seed: int,
        edge: float = 0.1,
        max_iters: int | None = None,
    ):
        check_param("edge", edge, integer=False, minimum=0, strict=True)
        if max_iters is not None:
            check_param("max_iters", max_iters, integer=True, minimum=0)
        self._cont = space.continuous_indices
        if not self._cont:
            raise ValueError("Nelder-Mead needs at least one continuous variable")
        self._max_iters = max_iters
        rng = np.random.default_rng(seed)
        start = lhs_design(space, SampleRequest(1, int(rng.integers(0, 2**63))))
        self._template = lhs_encoded(space, start)[0]
        self._search = SimplexSearch(self._template[self._cont], edge=edge)
        self._requests = Requests(space)

    def ask(self, max_points: int) -> list[Point]:
        if self._requests.idle():
            self._requests.request_all(simplex_rows(self._template, self._cont, self._search), self._search.advance)
        return self._requests.serve(max_points)

    def tell(self, records: Sequence[TrialRecord]) -> None:
        self._requests.deliver(records)

    def is_done(self) -> bool:
        return self._max_iters is not None and self._search.iterations >= self._max_iters
