"""Mixed-variable search spaces: validation, unit-scale encoding, and distance.

A search space is an ordered list of variables (continuous, integer, or
categorical). Points are value tuples aligned with that order. All search
logic operates on the encoded representation: continuous and integer channels
scaled to [0, 1], categorical channels carrying the level index.

The encoding lives here only: _Codec sets each variable kind's column
parameters, _snap_values maps encoded rows to value columns (the float, the
integer, the level index) and encode_values maps value columns back; the
other conversions are built from those two maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

Value = Union[float, int, str]

KEY_DIGITS = 12  # decimal digits an encoded coordinate keeps in a point key (see cache.py)


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
        if max(abs(self.lo), abs(self.hi)) > 2**53 or self.hi - self.lo > 10**KEY_DIGITS:
            raise ValueError(
                f"{self.name}.bounds too large: point keys tell integers apart only within"
                f" 2**53 of 0 and over at most 10**{KEY_DIGITS} steps"
            )


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


class _Codec:
    """Per-column encoding parameters by variable kind: a continuous or integer
    value spans [lo, hi] over the encoded [0, 1]; a level index spans
    [0, levels - 1] with width 1, so it is its own encoding."""

    def __init__(self, variables: Sequence[VariableSpec]):
        params = [
            (0, len(v.levels) - 1, 1) if isinstance(v, CategoricalVariable) else (v.lo, v.hi, v.hi - v.lo)
            for v in variables
        ]
        self.lo, self.hi, self.width = np.array(params, dtype=float).T.copy()
        self.scale = np.where(self.width == 0, 1.0, self.width)  # a one-value integer range
        self.rounded = np.array([not isinstance(v, ContinuousVariable) for v in variables])  # integer, level index


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
        object.__setattr__(self, "_codec", _Codec(variables))
        # channel index lists, read on every distance and posterior call
        categorical = tuple(i for i, v in enumerate(variables) if isinstance(v, CategoricalVariable))
        object.__setattr__(self, "_categorical", categorical)
        object.__setattr__(self, "_numeric", tuple(i for i in range(len(variables)) if i not in categorical))
        object.__setattr__(
            self, "_continuous", tuple(i for i, v in enumerate(variables) if isinstance(v, ContinuousVariable))
        )

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
        return list(self._numeric)

    @property
    def continuous_indices(self) -> list[int]:
        return list(self._continuous)

    @property
    def categorical_indices(self) -> list[int]:
        return list(self._categorical)

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


def _snap_values(space: SearchSpace, rows) -> np.ndarray:
    """The snap map, encoded rows to value columns: lo + c * (hi - lo), rounded
    half up on integer and level-index columns, clipped into [lo, hi]."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(space.variables):
        raise ArityMismatchError(f"coordinate rows of shape {rows.shape} for {len(space.variables)} variables")
    codec = space._codec
    x = codec.lo + rows * codec.width
    np.floor(x + 0.5, out=x, where=codec.rounded)
    return np.minimum(np.maximum(x, codec.lo), codec.hi)


def encode_values(space: SearchSpace, values: np.ndarray) -> np.ndarray:
    """The encode map, value columns (the float, the integer, the level
    index) to encoded rows: (x - lo) / (hi - lo), a one-value integer range
    encoding to 0."""
    return (values - space._codec.lo) / space._codec.scale


def value_points(space: SearchSpace, values: np.ndarray) -> list[Point]:
    """The points of an (n, d) array of value columns."""
    columns = []
    for var, col in zip(space.variables, values.T.tolist()):
        if isinstance(var, ContinuousVariable):
            columns.append(col)
        elif isinstance(var, IntegerVariable):
            columns.append([int(x) for x in col])
        else:
            columns.append([var.levels[int(x)] for x in col])
    return [Point(p) for p in zip(*columns)]


def encode_points(space: SearchSpace, points: Sequence[Point]) -> np.ndarray:
    """Encoded (n, d) rows of points; raises InvalidPointError naming every
    violation (see validate_point) if any point is outside the space."""
    violations = [v for p in points for v in validate_point(space, p)]
    if violations:
        raise InvalidPointError("; ".join(violations))
    values = np.empty((len(points), len(space.variables)))
    for i, (var, col) in enumerate(zip(space.variables, zip(*(p.values for p in points)))):
        values[:, i] = [var.levels.index(v) for v in col] if isinstance(var, CategoricalVariable) else col
    return encode_values(space, values)


def encode(space: SearchSpace, p: Point) -> np.ndarray:
    """The encoded row of one point (see encode_points)."""
    return encode_points(space, [p])[0]


def decode_rows(space: SearchSpace, rows) -> tuple[list[Point], np.ndarray]:
    """Snap every row of an (n, d) array of coordinates (see _snap_values)
    and return the valid points together with their encoded rows, which
    equal encode() of each point byte for byte."""
    values = _snap_values(space, rows)
    return value_points(space, values), encode_values(space, values)


def decode(space: SearchSpace, coords: Sequence[float]) -> Point:
    """Inverse of encode with snapping (see _snap_values). Always returns a
    valid point.

    decode(encode(p)) returns integer and categorical values unchanged, but a
    continuous value only to within a few ulps of its bounds (at most
    4 * eps * max(|lo|, |hi|)): scaling to [0, 1] and back rounds twice."""
    return value_points(space, _snap_values(space, [coords]))[0]


def snap_encoded(space: SearchSpace, rows: np.ndarray) -> np.ndarray:
    """encode(decode(row)) for every row of an (n, d) array, without building
    a Point per row."""
    return encode_values(space, _snap_values(space, rows))


def mixed_sqdist_matrix(space: SearchSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared mixed distance between encoded rows of a and b:
    squared Euclidean on numeric channels plus a 0/1 mismatch per categorical
    channel. The channels are added one (m, n) plane at a time: the numeric
    ones in index order, then the categorical ones."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in space.numeric_indices:
        diff = np.subtract.outer(a[:, i], b[:, i])
        diff *= diff
        out += diff
    for i in space.categorical_indices:
        out += np.not_equal.outer(a[:, i], b[:, i])
    return out


def distance(space: SearchSpace, a: Point, b: Point) -> float:
    """Mixed-variable metric between two points (see mixed_sqdist_matrix)."""
    sq = mixed_sqdist_matrix(space, encode(space, a)[None, :], encode(space, b)[None, :])
    return math.sqrt(sq[0, 0])
