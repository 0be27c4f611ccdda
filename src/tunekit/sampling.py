"""Seeded random and Latin hypercube samplers over a search space.

Both samplers are pure functions of (space, request): a fixed seed always
reproduces the same sample (numpy's PCG64 generator defines the stream).

LHS's map from a design draw to a value lives in _lhs_values only; points
and encoded rows are built from its value columns by the space module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import (
    CategoricalVariable, ContinuousVariable, IntegerVariable, Point, SearchSpace, encode_values, value_points
)


@dataclass(frozen=True)
class SampleRequest:
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")


def random_sample(space: SearchSpace, req: SampleRequest) -> list[Point]:
    """Draw n points with every coordinate independently uniform."""
    rng = np.random.default_rng(req.seed)
    columns: list[list] = []
    for var in space.variables:
        if isinstance(var, ContinuousVariable):
            columns.append(list(rng.uniform(var.lo, var.hi, req.n)))
        elif isinstance(var, IntegerVariable):
            columns.append([int(k) for k in rng.integers(var.lo, var.hi + 1, req.n)])
        else:
            columns.append([var.levels[i] for i in rng.integers(0, len(var.levels), req.n)])
    return [Point(col[i] for col in columns) for i in range(req.n)]


def lhs_design(space: SearchSpace, req: SampleRequest) -> np.ndarray:
    """The raw (n, d) stratified design behind lhs_sample.

    Continuous/integer columns hold the stratified [0, 1) draws: exactly one
    sample per equal-width stratum, drawn uniformly within the stratum, with
    strata assigned to samples by an independent permutation per variable.
    Categorical columns hold level indices: a random permutation of the levels
    repeated to length n, then shuffled by the per-variable assignment.
    """
    rng = np.random.default_rng(req.seed)
    n = req.n
    design = np.empty((n, len(space.variables)), dtype=float)
    for j, var in enumerate(space.variables):
        assignment = rng.permutation(n)
        if isinstance(var, CategoricalVariable):
            level_order = rng.permutation(len(var.levels))
            tiled = np.array([level_order[i % len(var.levels)] for i in range(n)], dtype=float)
            design[:, j] = tiled[assignment]
        else:
            strata = (assignment + rng.random(n)) / n
            design[:, j] = strata
    return design


def _lhs_values(space: SearchSpace, design: np.ndarray) -> np.ndarray:
    """The value columns of lhs_design rows: continuous variables map the
    stratified draw u to lo + u * (hi - lo); integer variables map it
    through the uniform-integer quantile (lo + floor(u * range_size)), so
    when n does not exceed the range size distinct strata land on distinct
    integers; a categorical column already holds level indices."""
    values = design.copy()
    for j, var in enumerate(space.variables):
        u = design[:, j]
        if isinstance(var, ContinuousVariable):
            values[:, j] = var.lo + u * (var.hi - var.lo)
        elif isinstance(var, IntegerVariable):
            values[:, j] = np.minimum(var.lo + np.floor(u * (var.hi - var.lo + 1)), var.hi)
    return values


def lhs_points(space: SearchSpace, design: np.ndarray) -> list[Point]:
    """The points of lhs_design rows."""
    return value_points(space, _lhs_values(space, design))


def lhs_sample(space: SearchSpace, req: SampleRequest) -> list[Point]:
    """Latin hypercube sample: one point per stratum for every continuous and
    integer variable, levels balanced for categorical variables."""
    return lhs_points(space, lhs_design(space, req))


def lhs_encoded(space: SearchSpace, design: np.ndarray) -> np.ndarray:
    """The encoded rows of lhs_points(space, design), without building a
    Point per row."""
    return encode_values(space, _lhs_values(space, design))
