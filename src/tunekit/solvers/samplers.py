"""Sampling-based solvers: pure random search and a fixed-size LHS design."""

from __future__ import annotations

import numpy as np

from ..manager import Solver, check_param
from ..sampling import SampleRequest, lhs_design, lhs_points, random_sample
from ..space import Point, SearchSpace
from ..trials import TrialRecord


class RandomSearch(Solver):
    """Draws fresh uniform points every ask; stops after n points if n is set."""

    def __init__(self, space: SearchSpace, seed: int, n: int | None = None, batch: int | None = None):
        for name, value in (("n", n), ("batch", batch)):
            if value is not None:
                check_param(name, value, integer=True, minimum=1)
        self._space = space
        self._rng = np.random.default_rng(seed)
        self._remaining = n
        self._batch = batch

    def ask(self, max_points: int) -> list[Point]:
        count = max_points
        if self._batch is not None:
            count = min(count, self._batch)
        if self._remaining is not None:
            count = min(count, self._remaining)
        if count <= 0:
            return []
        sub_seed = int(self._rng.integers(0, 2**63))
        points = random_sample(self._space, SampleRequest(count, sub_seed))
        if self._remaining is not None:
            self._remaining -= len(points)
        return points

    def tell(self, records: list[TrialRecord]) -> None:
        pass  # memoryless

    def is_done(self) -> bool:
        return self._remaining is not None and self._remaining <= 0


class LhsSearch(Solver):
    """Serves a Latin hypercube design of size n, then finishes. The design is
    drawn up front; a row becomes a point only when it is served."""

    def __init__(self, space: SearchSpace, seed: int, n: int, batch: int | None = None):
        check_param("n", n, integer=True, minimum=1)
        if batch is not None:
            check_param("batch", batch, integer=True, minimum=1)
        self._space = space
        self._design = lhs_design(space, SampleRequest(n, seed))
        self._cursor = 0
        self._batch = batch

    def ask(self, max_points: int) -> list[Point]:
        count = max_points if self._batch is None else min(max_points, self._batch)
        rows = self._design[self._cursor : self._cursor + count]
        self._cursor += len(rows)
        return lhs_points(self._space, rows)

    def tell(self, records: list[TrialRecord]) -> None:
        pass

    def is_done(self) -> bool:
        return self._cursor >= len(self._design)
