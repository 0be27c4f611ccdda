"""Search space validation, encoding round-trips, and the mixed distance."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import encoded_sqdistance
from tunekit.space import (
    ArityMismatchError,
    CategoricalVariable,
    ContinuousVariable,
    IntegerVariable,
    InvalidPointError,
    Point,
    SearchSpace,
    decode,
    decode_rows,
    distance,
    encode,
    is_valid,
    mixed_sqdist_matrix,
    snap_encoded,
    validate_point,
)

MIXED = SearchSpace(
    [
        ContinuousVariable("x", -5.0, 5.0),
        IntegerVariable("k", 1, 31),
        CategoricalVariable("w", ("uniform", "inverse")),
    ]
)


# -- construction invariants -------------------------------------------------


def test_continuous_requires_lo_below_hi():
    with pytest.raises(ValueError):
        ContinuousVariable("x", 1.0, 1.0)


def test_integer_allows_degenerate_range():
    IntegerVariable("k", 3, 3)
    with pytest.raises(ValueError):
        IntegerVariable("k", 4, 3)


def test_categorical_levels_distinct_and_nonempty():
    with pytest.raises(ValueError):
        CategoricalVariable("c", ())
    with pytest.raises(ValueError):
        CategoricalVariable("c", ("a", "a"))


def test_space_rejects_duplicate_names_and_empty():
    with pytest.raises(ValueError):
        SearchSpace([])
    with pytest.raises(ValueError):
        SearchSpace([ContinuousVariable("x", 0, 1), IntegerVariable("x", 0, 1)])


# -- validate_point ------------------------------------------------------------


def test_interior_point_is_valid():
    space = SearchSpace([ContinuousVariable("x", 0.0, 1.0)])
    assert validate_point(space, Point([0.5])) == []


def test_integer_below_lower_bound():
    space = SearchSpace([IntegerVariable("k", 1, 31)])
    verdict = validate_point(space, Point([0]))
    assert len(verdict) == 1 and "k" in verdict[0]


def test_unknown_categorical_level():
    space = SearchSpace([CategoricalVariable("w", ("uniform", "inverse"))])
    verdict = validate_point(space, Point(["linear"]))
    assert len(verdict) == 1 and "linear" in verdict[0]


def test_verdict_lists_every_violation():
    p = Point([99.0, 0, "linear"])
    assert len(validate_point(MIXED, p)) == 3


def test_arity_mismatch_raises_not_verdict():
    with pytest.raises(ArityMismatchError):
        validate_point(MIXED, Point([0.5]))


# -- encode / decode -----------------------------------------------------------


def test_encode_midpoint():
    space = SearchSpace([ContinuousVariable("x", -5.0, 5.0)])
    assert encode(space, Point([0.0]))[0] == pytest.approx(0.5)


def test_encode_integer_lower_bound():
    space = SearchSpace([IntegerVariable("k", 1, 31)])
    assert encode(space, Point([1]))[0] == 0.0


def test_encode_categorical_level_index():
    space = SearchSpace([CategoricalVariable("c", ("a", "b", "c"))])
    assert encode(space, Point(["b"]))[0] == 1.0


def test_encode_bounds_map_to_unit_interval_ends():
    space = SearchSpace([ContinuousVariable("x", 2.0, 8.0), IntegerVariable("k", -3, 7)])
    assert list(encode(space, Point([2.0, -3]))) == [0.0, 0.0]
    assert list(encode(space, Point([8.0, 7]))) == [1.0, 1.0]


def test_encode_rejects_invalid_point():
    with pytest.raises(InvalidPointError):
        encode(MIXED, Point([99.0, 1, "uniform"]))


def test_degenerate_integer_range_encodes_to_zero():
    space = SearchSpace([IntegerVariable("k", 4, 4)])
    assert encode(space, Point([4]))[0] == 0.0
    assert decode(space, [0.7]).values == (4,)


def test_decode_snaps_out_of_range_coords():
    decoded = decode(MIXED, [-0.2, 1.4, 5.0])
    assert decoded.values == (-5.0, 31, "inverse")


def test_decode_rounds_integers_half_up():
    space = SearchSpace([IntegerVariable("k", 0, 10)])
    assert decode(space, [0.25]).values == (3,)  # 2.5 rounds up
    assert decode(space, [0.24]).values == (2,)


# -- distance -------------------------------------------------------------------


def test_distance_identity():
    p = Point([0.5, 16, "uniform"])
    assert distance(MIXED, p, p) == 0.0


def test_distance_345_euclidean():
    space = SearchSpace([ContinuousVariable("a", 0.0, 1.0), ContinuousVariable("b", 0.0, 1.0)])
    assert distance(space, Point([0.0, 0.0]), Point([0.3, 0.4])) == pytest.approx(0.5)


def test_distance_categorical_mismatch():
    space = SearchSpace(
        [ContinuousVariable("x", 0.0, 1.0), CategoricalVariable("c", ("a", "b"))]
    )
    assert distance(space, Point([0.5, "a"]), Point([0.5, "b"])) == pytest.approx(1.0)


def test_snap_encoded_ties_and_clipping():
    space = SearchSpace(
        [
            IntegerVariable("k", 0, 4),
            CategoricalVariable("c", ("a", "b", "c")),
            ContinuousVariable("x", -1.0, 3.0),
        ]
    )
    # k: 0.5, 1.5 and 2.5 exactly round half up; c: -0.5 and 2.5 are ties,
    # 3.7 clips; x: below and above the box clip to its walls
    rows = np.array([[0.125, -0.5, -0.2], [0.375, 0.5, 1.3], [0.625, 2.5, 0.5], [1.4, 3.7, 0.0]])
    snapped = snap_encoded(space, rows)
    for row, got in zip(rows, snapped):
        assert got.tobytes() == encode(space, decode(space, row)).tobytes()
    points, encoded = decode_rows(space, rows)
    assert points == [decode(space, row) for row in rows]
    assert [row.tobytes() for row in encoded] == [encode(space, p).tobytes() for p in points]
    assert snapped[:, 0].tolist() == [0.25, 0.5, 0.75, 1.0]
    assert snapped[:, 1].tolist() == [0.0, 1.0, 2.0, 2.0]
    assert snapped[:, 2].tolist() == [0.0, 1.0, 0.5, 0.0]
    with pytest.raises(ArityMismatchError):
        snap_encoded(space, rows[:, :2])


# -- property tests ---------------------------------------------------------------


def _space_strategy():
    continuous = st.builds(
        lambda name, lo, width: ContinuousVariable(name, lo, lo + width),
        st.just("c"),
        st.floats(-100, 100),
        st.floats(0.5, 200),
    )
    integer = st.builds(
        lambda name, lo, width: IntegerVariable(name, lo, lo + width),
        st.just("i"),
        st.integers(-50, 50),
        st.integers(0, 100),
    )
    categorical = st.builds(
        lambda name, n: CategoricalVariable(name, tuple(f"lv{i}" for i in range(n))),
        st.just("g"),
        st.integers(1, 6),
    )
    def rename(variables):
        return SearchSpace(
            type(v)(f"{v.name}{i}", *(
                (v.lo, v.hi) if not isinstance(v, CategoricalVariable) else (v.levels,)
            ))
            for i, v in enumerate(variables)
        )
    return st.lists(st.one_of(continuous, integer, categorical), min_size=1, max_size=10).map(rename)


def _random_point(space: SearchSpace, rng: np.random.Generator) -> Point:
    values = []
    for var in space.variables:
        if isinstance(var, ContinuousVariable):
            values.append(float(rng.uniform(var.lo, var.hi)))
        elif isinstance(var, IntegerVariable):
            values.append(int(rng.integers(var.lo, var.hi + 1)))
        else:
            values.append(var.levels[rng.integers(0, len(var.levels))])
    return Point(values)


@settings(max_examples=60, deadline=None)
@given(_space_strategy(), st.integers(0, 2**32 - 1))
# seed 53086 draws 8.261730362708144, which comes back as 8.261730362708146
@example(SearchSpace([ContinuousVariable("c0", 1.1, 97.475)]), 53086)
def test_decode_encode_identity(space, seed):
    rng = np.random.default_rng(seed)
    p = _random_point(space, rng)
    assert is_valid(space, p)
    back = decode(space, encode(space, p)).values
    for var, before, after in zip(space.variables, p.values, back):
        if isinstance(var, ContinuousVariable):
            assert abs(after - before) <= 4 * np.finfo(float).eps * max(abs(var.lo), abs(var.hi))
        else:
            assert after == before


@settings(max_examples=40, deadline=None)
@given(_space_strategy(), st.integers(0, 2**32 - 1))
def test_distance_metric_properties(space, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_random_point(space, rng) for _ in range(3))
    dab, dba = distance(space, a, b), distance(space, b, a)
    assert dab >= 0.0
    assert dab == pytest.approx(dba)
    assert distance(space, a, c) <= dab + distance(space, b, c) + 1e-9
    if dab == 0.0:
        assert np.allclose(encode(space, a), encode(space, b))


def test_distance_zero_iff_equal_after_encoding():
    space = SearchSpace([ContinuousVariable("x", 0.0, 1.0)])
    assert distance(space, Point([0.25]), Point([0.25])) == 0.0
    assert distance(space, Point([0.25]), Point([0.26])) > 0.0


@settings(max_examples=40, deadline=None)
@given(_space_strategy(), st.integers(0, 2**32 - 1))
def test_distance_matrix_matches_scalar_oracle(space, seed):
    rng = np.random.default_rng(seed)
    points = [_random_point(space, rng) for _ in range(4)]
    enc = np.stack([encode(space, p) for p in points])
    sq = mixed_sqdist_matrix(space, enc, enc[:3])
    assert sq.shape == (4, 3)
    for i, a in enumerate(points):
        for j, b in enumerate(points[:3]):
            expected = encoded_sqdistance(space, enc[i], enc[j])
            assert sq[i, j] == expected
            assert distance(space, a, b) == math.sqrt(expected)


@settings(max_examples=60, deadline=None)
@given(_space_strategy(), st.integers(0, 2**32 - 1))
def test_snap_encoded_matches_point_round_trip(space, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-0.5, 1.5, size=(12, len(space)))  # clipped on both sides
    for i, var in enumerate(space.variables):
        if isinstance(var, IntegerVariable) and var.hi > var.lo:
            rows[:4, i] = (np.arange(4) + 0.5) / (var.hi - var.lo)  # at or next to a tie
        elif isinstance(var, CategoricalVariable):
            rows[:4, i] = np.arange(4) - 0.5
            rows[4:8, i] = rng.uniform(-1.0, len(var.levels) + 1.0, 4)
    snapped = snap_encoded(space, rows)
    for row, got in zip(rows, snapped):
        assert got.tobytes() == encode(space, decode(space, row)).tobytes()
    points, encoded = decode_rows(space, rows)
    assert points == [decode(space, row) for row in rows]
    assert [row.tobytes() for row in encoded] == [encode(space, p).tobytes() for p in points]
