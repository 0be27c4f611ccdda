"""Random and Latin hypercube sampler contracts."""

from __future__ import annotations

import numpy as np
import pytest

from tunekit.sampling import SampleRequest, lhs_design, lhs_encoded, lhs_sample, random_sample
from tunekit.solvers.samplers import LhsSearch
from tunekit.space import (
    CategoricalVariable,
    ContinuousVariable,
    IntegerVariable,
    SearchSpace,
    encode,
    is_valid,
)

MIXED = SearchSpace(
    [
        ContinuousVariable("x", -5.0, 5.0),
        ContinuousVariable("y", 0.0, 1.0),
        IntegerVariable("k", 1, 31),
        IntegerVariable("m", 0, 2),
        CategoricalVariable("w", ("uniform", "inverse", "flat")),
    ]
)


def test_request_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        SampleRequest(0, 1)


# -- random sampler ---------------------------------------------------------


def test_single_level_categorical_always_that_level():
    space = SearchSpace([CategoricalVariable("c", ("only",))])
    assert random_sample(space, SampleRequest(1, seed=5))[0].values == ("only",)


def test_random_sample_deterministic_per_seed():
    a = random_sample(MIXED, SampleRequest(20, seed=99))
    b = random_sample(MIXED, SampleRequest(20, seed=99))
    assert a == b


def test_random_sample_mean_of_uniform():
    space = SearchSpace([ContinuousVariable("x", 0.0, 1.0)])
    points = random_sample(space, SampleRequest(10_000, seed=7))
    mean = np.mean([p.values[0] for p in points])
    assert abs(mean - 0.5) < 0.02  # ~4 sigma of the mean of 1e4 uniforms


def test_random_sample_points_valid():
    for p in random_sample(MIXED, SampleRequest(50, seed=3)):
        assert is_valid(MIXED, p)


# -- LHS sampler -------------------------------------------------------------


def test_lhs_one_point_per_quartile():
    space = SearchSpace([ContinuousVariable("x", 0.0, 1.0)])
    points = lhs_sample(space, SampleRequest(4, seed=11))
    strata = sorted(int(p.values[0] * 4) for p in points)
    assert strata == [0, 1, 2, 3]


def test_lhs_small_integer_range_is_permutation():
    space = SearchSpace([IntegerVariable("k", 1, 3)])
    for seed in range(10):
        points = lhs_sample(space, SampleRequest(3, seed=seed))
        assert sorted(p.values[0] for p in points) == [1, 2, 3]


def test_lhs_deterministic_per_seed():
    a = lhs_sample(MIXED, SampleRequest(17, seed=42))
    b = lhs_sample(MIXED, SampleRequest(17, seed=42))
    assert a == b


def test_lhs_points_valid():
    for n in (1, 2, 7, 50):
        for p in lhs_sample(MIXED, SampleRequest(n, seed=n)):
            assert is_valid(MIXED, p)


def test_lhs_categorical_levels_balanced():
    space = SearchSpace([CategoricalVariable("c", ("a", "b", "c"))])
    points = lhs_sample(space, SampleRequest(8, seed=1))
    counts = {lv: sum(p.values[0] == lv for p in points) for lv in ("a", "b", "c")}
    assert sorted(counts.values()) == [2, 3, 3]


def test_lhs_design_one_per_stratum_every_numeric_variable():
    # exhaustive stratum-count check over a spread of sizes
    numeric_cols = [0, 1, 2, 3]
    for n in list(range(2, 40)) + [97, 256, 1000]:
        design = lhs_design(MIXED, SampleRequest(n, seed=n))
        for col in numeric_cols:
            strata = np.floor(design[:, col] * n).astype(int)
            assert sorted(strata) == list(range(n)), f"n={n} col={col}"


@pytest.mark.parametrize("seed", range(5))
def test_lhs_encoded_equals_encoding_each_point(seed):
    # continuous bounds that are not exact in binary, a one-value integer
    # range, a wide and a narrow integer range, and categoricals
    space = SearchSpace(
        [
            *MIXED.variables,
            ContinuousVariable("z", -0.3, 97.475),
            IntegerVariable("one", 4, 4),
            IntegerVariable("wide", -7, 1000),
            CategoricalVariable("solo", ("only",)),
        ]
    )
    req = SampleRequest(256, seed)
    want = np.stack([encode(space, p) for p in lhs_sample(space, req)])
    assert np.array_equal(lhs_encoded(space, lhs_design(space, req)), want)


def test_distinct_seeds_distinct_samples():
    samples = [tuple(lhs_sample(MIXED, SampleRequest(5, seed=s))) for s in range(20)]
    assert len(set(samples)) == 20

    randoms = [tuple(random_sample(MIXED, SampleRequest(5, seed=s))) for s in range(20)]
    assert len(set(randoms)) == 20


def test_lhs_search_serves_the_design_rows_as_lhs_sample_points():
    solver = LhsSearch(MIXED, seed=9, n=23, batch=4)
    served = []
    for cap in (1, 5, 0, 3, 100, 100, 100, 100, 100):
        served += solver.ask(cap)
    assert served == lhs_sample(MIXED, SampleRequest(23, seed=9))
    assert solver.is_done() and solver.ask(4) == []
