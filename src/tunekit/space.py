"""Mixed-variable search spaces: validation, unit-scale encoding, and distance.

A search space is an ordered list of variables (continuous, integer, or
categorical). Points are value tuples aligned with that order. All search
logic operates on the encoded representation: continuous and integer channels
scaled to [0, 1], categorical channels carrying the level index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

Value = Union[float, int, str]


class ArityMismatchError(ValueError):
    """Point value count does not match the space's variable count."""


class InvalidPointError(ValueError):
    """Point violates bounds or level sets of its space."""


@dataclass(frozen=True)
class ContinuousVariable:
    name: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"continuous variable {self.name!r}: need lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class IntegerVariable:
    name: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"integer variable {self.name!r}: need lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class CategoricalVariable:
    name: str
    levels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) < 1:
            raise ValueError(f"categorical variable {self.name!r}: needs at least one level")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"categorical variable {self.name!r}: levels must be distinct")


VariableSpec = Union[ContinuousVariable, IntegerVariable, CategoricalVariable]


def _native(value: Value) -> Value:
    """Numpy scalars from sampler/solver arithmetic become builtin types so
    point values serialize cleanly."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


@dataclass(frozen=True)
class Point:
    """A candidate assignment; values aligned with the space's variable order."""

    values: tuple[Value, ...]

    def __init__(self, values: Iterable[Value]):
        object.__setattr__(self, "values", tuple(_native(v) for v in values))


@dataclass(frozen=True)
class SearchSpace:
    variables: tuple[VariableSpec, ...]

    def __init__(self, variables: Iterable[VariableSpec]):
        variables = tuple(variables)
        if not variables:
            raise ValueError("search space needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be unique, got {names}")
        object.__setattr__(self, "variables", variables)

    def __len__(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    def index_of(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise KeyError(name)

    @property
    def numeric_indices(self) -> list[int]:
        """Channels that live on the [0, 1] scale (continuous and integer)."""
        return [i for i, v in enumerate(self.variables) if not isinstance(v, CategoricalVariable)]

    @property
    def continuous_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.variables) if isinstance(v, ContinuousVariable)]

    @property
    def integer_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.variables) if isinstance(v, IntegerVariable)]

    @property
    def categorical_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.variables) if isinstance(v, CategoricalVariable)]

    def to_dict(self, p: Point) -> dict[str, Value]:
        if len(p.values) != len(self.variables):
            raise ArityMismatchError(f"point has {len(p.values)} values for {len(self.variables)} variables")
        return {v.name: x for v, x in zip(self.variables, p.values)}


def validate_point(space: SearchSpace, p: Point) -> list[str]:
    """Return the list of violated bounds/levels; the point is valid iff empty.

    Raises ArityMismatchError when the value count does not match the space
    (that is a usage error, not a verdict).
    """
    if len(p.values) != len(space.variables):
        raise ArityMismatchError(
            f"point has {len(p.values)} values for {len(space.variables)} variables"
        )
    violations: list[str] = []
    for var, value in zip(space.variables, p.values):
        if isinstance(var, ContinuousVariable):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                violations.append(f"{var.name}: expected a real value, got {value!r}")
            elif not (var.lo <= value <= var.hi):
                violations.append(f"{var.name}: {value!r} outside [{var.lo}, {var.hi}]")
        elif isinstance(var, IntegerVariable):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                violations.append(f"{var.name}: expected an integer, got {value!r}")
            elif not (var.lo <= value <= var.hi):
                violations.append(f"{var.name}: {value!r} outside [{var.lo}, {var.hi}]")
        else:
            if value not in var.levels:
                violations.append(f"{var.name}: unknown level {value!r}")
    return violations


def is_valid(space: SearchSpace, p: Point) -> bool:
    return not validate_point(space, p)


def encode(space: SearchSpace, p: Point) -> np.ndarray:
    """Map a valid point to encoded coordinates.

    Continuous/integer values are scaled to [0, 1] over their bounds (a
    degenerate integer range encodes to 0); categorical values carry their
    level index.
    """
    violations = validate_point(space, p)
    if violations:
        raise InvalidPointError("; ".join(violations))
    coords = np.empty(len(space.variables), dtype=float)
    for i, (var, value) in enumerate(zip(space.variables, p.values)):
        if isinstance(var, ContinuousVariable):
            coords[i] = (float(value) - var.lo) / (var.hi - var.lo)
        elif isinstance(var, IntegerVariable):
            coords[i] = 0.0 if var.hi == var.lo else (int(value) - var.lo) / (var.hi - var.lo)
        else:
            coords[i] = float(var.levels.index(value))
    return coords


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def decode(space: SearchSpace, coords: Sequence[float]) -> Point:
    """Inverse of encode with snapping: clip continuous channels, round-half-up
    then clip integer and categorical channels. Always returns a valid point.

    decode(encode(p)) returns integer and categorical values unchanged, but a
    continuous value only to within a few ulps of its bounds (at most
    4 * eps * max(|lo|, |hi|)): scaling to [0, 1] and back rounds twice."""
    if len(coords) != len(space.variables):
        raise ArityMismatchError(
            f"coordinate vector has {len(coords)} channels for {len(space.variables)} variables"
        )
    values: list[Value] = []
    for var, c in zip(space.variables, coords):
        c = float(c)
        if isinstance(var, ContinuousVariable):
            values.append(min(max(var.lo + c * (var.hi - var.lo), var.lo), var.hi))
        elif isinstance(var, IntegerVariable):
            if var.hi == var.lo:
                values.append(var.lo)
            else:
                k = _round_half_up(var.lo + c * (var.hi - var.lo))
                values.append(min(max(k, var.lo), var.hi))
        else:
            idx = min(max(_round_half_up(c), 0), len(var.levels) - 1)
            values.append(var.levels[idx])
    return Point(values)


def snap_encoded(space: SearchSpace, rows: np.ndarray) -> np.ndarray:
    """encode(decode(row)) for every row of an (n, d) array, bit for bit.

    Each channel repeats decode's and encode's arithmetic in the same order
    (lo + c * (hi - lo), clip, then (x - lo) / (hi - lo); integer and
    categorical channels round half up), so the rows match the point round
    trip without building a Point per row."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(space.variables):
        raise ArityMismatchError(
            f"coordinate rows of shape {rows.shape} for {len(space.variables)} variables"
        )
    out = np.empty_like(rows)
    for i, var in enumerate(space.variables):
        c = rows[:, i]
        if isinstance(var, ContinuousVariable):
            x = np.clip(var.lo + c * (var.hi - var.lo), var.lo, var.hi)
            out[:, i] = (x - var.lo) / (var.hi - var.lo)
        elif isinstance(var, IntegerVariable):
            if var.hi == var.lo:
                out[:, i] = 0.0
            else:
                k = np.clip(np.floor(var.lo + c * (var.hi - var.lo) + 0.5), var.lo, var.hi)
                out[:, i] = (k - var.lo) / (var.hi - var.lo)
        else:
            out[:, i] = np.clip(np.floor(c + 0.5), 0, len(var.levels) - 1)
    return out


def mixed_sqdist_matrix(space: SearchSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared mixed distance between encoded rows of a and b:
    squared Euclidean on numeric channels plus a 0/1 mismatch per categorical
    channel."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in space.numeric_indices:
        out += (a[:, i, None] - b[None, :, i]) ** 2
    for i in space.categorical_indices:
        out += (a[:, i, None] != b[None, :, i]).astype(float)
    return out


def distance(space: SearchSpace, a: Point, b: Point) -> float:
    """Mixed-variable metric between two points (see mixed_sqdist_matrix)."""
    sq = mixed_sqdist_matrix(space, encode(space, a)[None, :], encode(space, b)[None, :])
    return math.sqrt(sq[0, 0])
