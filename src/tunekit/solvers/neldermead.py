"""Variable-shape simplex search over the unit cube.

SimplexSearch is a resumable state machine: pending() lists the points whose
values are needed next, advance() feeds them back. That single implementation
is driven by nm_minimize_many(), which runs several searches in lockstep with
one batched call per step (nm_minimize() is its one-start form, and Bayes
refines its proposals with it), through the ask/tell contract by
NelderMeadSolver, and per-rectangle by the DIRECT hybrid.

Candidates are clipped to [0, 1]^d before evaluation. A candidate that lands
exactly on an existing vertex after clipping is not evaluated; it is treated
as arbitrarily bad, which pushes the iteration toward an inside contraction
(and a failed contraction toward a shrink).
"""

from __future__ import annotations

import math
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


def _axis_simplex(x0: np.ndarray, edge: float) -> np.ndarray:
    """x0 plus one offset vertex per axis, stepping away from the nearer wall,
    as a (d + 1, d) array."""
    d = len(x0)
    vertices = np.repeat(x0[None, :], d + 1, axis=0)
    step = np.where(x0 + edge <= 1.0, edge, -edge)
    vertices[np.arange(1, d + 1), np.arange(d)] = _clip(x0 + step)
    return vertices


def _clip(x: np.ndarray) -> np.ndarray:
    """x clipped to [0, 1]; np.clip's result at a fraction of its call cost."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


def _is_degenerate(vertices: np.ndarray) -> bool:
    """Shape degeneracy: volume vanishing relative to the simplex's own scale.

    A uniformly shrunk simplex is converging, not degenerate, so the volume is
    normalized by the longest edge length before comparing to the threshold."""
    if len(vertices) < 2:
        return True
    basis = vertices[1:] - vertices[0]
    scale = float(np.abs(basis).max())
    if scale == 0.0:
        return True
    m = len(basis)
    volume = abs(float(np.linalg.det(basis))) / math.factorial(m)
    return volume / scale**m < DEGENERATE_VOLUME


class SimplexSearch:
    """The vertices are one (d + 1, d) array, kept sorted by value (best
    first) with their values in a list of the same order. pending() is a
    (k, d) array, one row per point whose value is needed next, and advance()
    takes their k values in row order."""

    def __init__(
        self,
        x0: np.ndarray | None = None,
        edge: float = 0.1,
        vertices: Sequence[np.ndarray] | None = None,
    ):
        if vertices is not None:
            self._init_vertices = np.array([np.asarray(v, dtype=float) for v in vertices])
        else:
            if x0 is None:
                raise ValueError("need x0 or explicit vertices")
            self._init_vertices = _axis_simplex(np.asarray(x0, dtype=float), edge)
        self.iterations = 0
        self.best_x: np.ndarray | None = None
        self.best_f = math.inf
        self._verts = np.empty((0, 0))
        self._fs: list[float] = []
        self._gen = self._main()
        self._pending: np.ndarray = next(self._gen)

    def pending(self) -> np.ndarray:
        return self._pending.copy()

    def advance(self, values: Sequence[float]) -> None:
        if len(values) != len(self._pending):
            raise ValueError(f"expected {len(self._pending)} values, got {len(values)}")
        values = [float(f) for f in values]
        for x, f in zip(self._pending, values):
            if f < self.best_f:
                self.best_f = f
                self.best_x = x.copy()
        self._pending = self._gen.send(values)

    def value_spread(self) -> float:
        if not self._fs:
            return math.inf
        return max(self._fs) - min(self._fs)

    # -- internals ---------------------------------------------------------

    def _collides(self, x: np.ndarray) -> bool:
        return bool((np.abs(self._verts - x).max(axis=1) < 1e-15).any())

    def _sort(self) -> None:
        order = sorted(range(len(self._fs)), key=self._fs.__getitem__)
        self._verts = self._verts[order]
        self._fs = [self._fs[i] for i in order]

    def _main(self):
        self._verts = self._init_vertices.copy()
        self._fs = list((yield self._verts))
        while True:
            self._sort()
            if _is_degenerate(self._verts):
                self._verts = _axis_simplex(self._verts[0], REINIT_EDGE)
                new_fs = yield self._verts[1:]
                self._fs = [self._fs[0]] + list(new_fs)
                self._sort()
            self.iterations += 1
            verts, fs = self._verts, self._fs
            worst = verts[-1]
            f_worst = fs[-1]
            centroid = np.add.reduce(verts[:-1], axis=0) / (len(verts) - 1)  # np.mean's sum and divide

            xr = _clip(centroid + REFLECT * (centroid - worst))
            fr = math.inf if self._collides(xr) else (yield xr[None, :])[0]

            if fr < fs[0]:
                xe = _clip(centroid + EXPAND * (centroid - worst))
                fe = math.inf if self._collides(xe) else (yield xe[None, :])[0]
                if fe < fr:
                    verts[-1], fs[-1] = xe, fe
                else:
                    verts[-1], fs[-1] = xr, fr
            elif fr < fs[-2]:
                verts[-1], fs[-1] = xr, fr
            else:
                if fr < f_worst:  # outside contraction
                    xc = _clip(centroid + CONTRACT * (xr - centroid))
                    fc = math.inf if self._collides(xc) else (yield xc[None, :])[0]
                    accepted = fc <= fr
                else:  # inside contraction
                    xc = _clip(centroid - CONTRACT * (centroid - worst))
                    fc = math.inf if self._collides(xc) else (yield xc[None, :])[0]
                    accepted = fc < f_worst
                if accepted:
                    verts[-1], fs[-1] = xc, fc
                else:  # shrink toward the best vertex
                    best = verts[0]
                    shrunk = _clip(best + SHRINK * (verts[1:] - best))
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
    searches = [SimplexSearch(np.asarray(x0, dtype=float), edge=edge) for x0 in starts]
    active = [i for i, s in enumerate(searches) if s.iterations < max_iters]
    while active:
        pending = [searches[i].pending() for i in active]
        owners = np.repeat(active, [len(p) for p in pending])
        values = fn_rows(np.concatenate(pending), owners)
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


def nm_minimize(
    fn: Callable[[np.ndarray], float],
    x0: np.ndarray,
    edge: float = 0.1,
    max_iters: int = 200,
) -> tuple[np.ndarray, float, int]:
    """nm_minimize_many with one start, calling fn once per point; returns
    (best_x, best_f, iterations)."""
    return nm_minimize_many(lambda rows, _: [fn(x) for x in rows], [x0], edge, max_iters)[0]


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
