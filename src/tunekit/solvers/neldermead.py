"""Variable-shape simplex search over the unit cube.

SimplexSearch is a resumable state machine over some channels of a start row:
pending() lists the full rows whose values are needed next, advance() feeds
them back. That single implementation is driven by nm_minimize_many(), which
runs several searches in lockstep with one batched call per step (Bayes
refines its proposals with it), through the ask/tell contract by
NelderMeadSolver, and per-rectangle by the DIRECT hybrid. Each of them moves
the continuous channels of an encoded row.

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
    summed from 0.0 in row order, then divided by the row count. numpy sums
    a single column of 8 or more rows pairwise, since it is contiguous, so
    that case is left to numpy; no simplex has it (one coordinate, two
    vertices)."""
    if len(rows) >= 8 and len(rows[0]) == 1:
        return [float(np.add.reduce(np.array(rows), axis=0)[0]) / len(rows)]
    total = [0.0] * len(rows[0])
    for row in rows:
        total = list(map(add, total, row))
    n = len(rows)
    return [t / n for t in total]


class SimplexSearch:
    """A simplex search that moves some channels of the start row x0 (default:
    all of them). It starts from the axis simplex of the given edge around
    x0's coordinates there, or from explicit vertices: d + 1 of d coordinates
    for d channels, x0 defaulting to the first vertex. pending() is a
    (k, len(x0)) array of the rows whose values are needed next, and
    advance() takes their k values in row order. Each row, like best_x, is x0
    with a point's coordinates in the channels and x0's bits elsewhere.

    The vertices are lists of Python floats (see the module docstring), kept
    sorted by value, best first, with their values in a list of the same
    order. `sorted` orders them, and it is stable: tied vertices keep their
    order, and a NaN value, which compares false with everything, lands where
    the merge puts it."""

    def __init__(
        self,
        x0: Sequence[float] | None = None,
        edge: float = 0.1,
        vertices: Sequence[Sequence[float]] | None = None,
        channels: Sequence[int] | None = None,
    ):
        if x0 is None:
            if vertices is None:
                raise ValueError("need x0 or explicit vertices")
            x0 = vertices[0]
        self._row = np.asarray(x0, dtype=float).tolist()
        self._channels = list(range(len(self._row))) if channels is None else [int(c) for c in channels]
        d = len(self._channels)
        if vertices is not None:
            self._verts = [np.asarray(v, dtype=float).tolist() for v in vertices]
            if len(self._verts) != d + 1 or any(len(v) != d for v in self._verts):
                raise ValueError(f"need {d + 1} vertices of {d} coordinates")
        else:
            self._verts = _axis_vertices([self._row[c] for c in self._channels], float(edge))
        self.iterations = 0
        self.best_f = math.inf
        self._best: list[float] | None = None
        self._fs: list[float] = []
        self._gen = self._main()
        self._pending: list[list[float]] = next(self._gen)

    def _placed(self, x: list[float]) -> list[float]:
        """The start row with the coordinates x in the channels."""
        row = list(self._row)
        for c, v in zip(self._channels, x):
            row[c] = v
        return row

    @property
    def best_x(self) -> np.ndarray | None:
        return None if self._best is None else np.array(self._placed(self._best))

    def pending(self) -> np.ndarray:
        return np.array([self._placed(x) for x in self._pending])

    def advance(self, values: Sequence[float]) -> None:
        if len(values) != len(self._pending):
            raise ValueError(f"expected {len(self._pending)} values, got {len(values)}")
        values = [float(f) for f in values]
        for x, f in zip(self._pending, values):
            if f < self.best_f:
                self.best_f = f
                self._best = x
        self._pending = self._gen.send(values)

    def value_spread(self) -> float:
        if not self._fs:
            return math.inf
        return max(self._fs) - min(self._fs)

    # -- internals ---------------------------------------------------------
    # No vertex list is changed in place once built, so the pending points
    # and the best point can be shared without copies.

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
        if scale**m == 0.0:  # the power underflows: measure the basis in units of its scale
            basis, scale = np.divide(basis, scale), 1.0
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


def nm_minimize_many(
    fn_rows: Callable[[np.ndarray], Sequence[float]],
    searches: Sequence[SimplexSearch],
    max_iters: int = 200,
) -> None:
    """Step the searches in lockstep; each one's result is its best_x,
    best_f and iterations.

    Each step stacks the pending rows of every active search into one array
    and makes a single fn_rows(rows) call, which returns one value per row. A
    search leaves the batch once it has run max_iters iterations or every
    vertex holds the same value, so each search takes the path it would take
    alone."""

    def running(search: SimplexSearch) -> bool:
        return search.iterations < max_iters and not (search.iterations > 0 and search.value_spread() <= 0.0)

    active = [s for s in searches if running(s)]
    while active:
        pending = [s.pending() for s in active]
        values = np.asarray(fn_rows(np.concatenate(pending)), dtype=float).tolist()
        offset = 0
        for search, rows in zip(active, pending):
            search.advance(values[offset : offset + len(rows)])
            offset += len(rows)
        active = [s for s in active if running(s)]


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
        cont = space.continuous_indices
        if not cont:
            raise ValueError("Nelder-Mead needs at least one continuous variable")
        self._max_iters = max_iters
        rng = np.random.default_rng(seed)
        start = lhs_design(space, SampleRequest(1, int(rng.integers(0, 2**63))))
        self._search = SimplexSearch(lhs_encoded(space, start)[0], edge=edge, channels=cont)
        self._requests = Requests(space)

    def ask(self, max_points: int) -> list[Point]:
        if self._requests.idle():
            self._requests.request_all(self._search.pending(), self._search.advance)
        return self._requests.serve(max_points)

    def tell(self, records: Sequence[TrialRecord]) -> None:
        self._requests.deliver(records)

    def is_done(self) -> bool:
        return self._max_iters is not None and self._search.iterations >= self._max_iters
