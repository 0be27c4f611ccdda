"""Seeded random and Latin hypercube samplers over a search space.

Both samplers are pure functions of (space, request): a fixed seed always
reproduces the same sample (numpy's PCG64 generator defines the stream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import CategoricalVariable, ContinuousVariable, IntegerVariable, Point, SearchSpace


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


def lhs_point(space: SearchSpace, row: np.ndarray) -> Point:
    """The point of one lhs_design row.

    Integer variables map the stratified draw through the uniform-integer
    quantile (lo + floor(u * range_size)), so when n does not exceed the range
    size distinct strata land on distinct integers.
    """
    values = []
    for var, u in zip(space.variables, row):
        if isinstance(var, ContinuousVariable):
            values.append(var.lo + u * (var.hi - var.lo))
        elif isinstance(var, IntegerVariable):
            size = var.hi - var.lo + 1
            values.append(min(var.lo + int(u * size), var.hi))
        else:
            values.append(var.levels[int(u)])
    return Point(values)


def lhs_sample(space: SearchSpace, req: SampleRequest) -> list[Point]:
    """Latin hypercube sample: one point per stratum for every continuous and
    integer variable, levels balanced for categorical variables (see
    lhs_point for how a design row becomes a point)."""
    return [lhs_point(space, row) for row in lhs_design(space, req)]


def lhs_encoded(space: SearchSpace, design: np.ndarray) -> np.ndarray:
    """encode(space, lhs_point(space, row)) for every design row, bit for bit,
    in one numpy pass per variable: each channel repeats lhs_point's and
    encode's arithmetic in the same order, without building or validating a
    Point per row."""
    out = np.empty_like(design)
    for j, var in enumerate(space.variables):
        u = design[:, j]
        if isinstance(var, ContinuousVariable):
            out[:, j] = (var.lo + u * (var.hi - var.lo) - var.lo) / (var.hi - var.lo)
        elif isinstance(var, IntegerVariable):
            if var.hi == var.lo:
                out[:, j] = 0.0
            else:
                k = np.minimum(var.lo + np.floor(u * (var.hi - var.lo + 1)), var.hi)
                out[:, j] = (k - var.lo) / (var.hi - var.lo)
        else:
            out[:, j] = np.floor(u)
    return out
