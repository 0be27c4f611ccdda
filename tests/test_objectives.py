"""Objective suite: analytic functions, dataset partitioning, the k-NN
learner, CSV ingestion, and the external-process protocol."""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tunekit.objectives.knn as knn_module
from helpers import scalar_knn_error_rate, stable_nearest
from tunekit.objectives import (
    BRANIN_MINIMUM,
    BRANIN_SPACE,
    MIXED_SYNTHETIC_SPACE,
    BuiltinObjective,
    Dataset,
    DatasetError,
    ExternalObjective,
    KnnObjective,
    PartitionSpec,
    SpaceMismatchError,
    build_objective,
    default_knn_space,
    load_csv,
    make_blobs,
    partition,
)
from tunekit.objectives.knn import _nearest, _Scorer, minkowski_distances
from tunekit.manager import TuningManager
from tunekit.solvers import RandomSearch
from tunekit.space import CategoricalVariable, ContinuousVariable, IntegerVariable, Point, SearchSpace
from tunekit.trials import Budget, EvaluationFailed

BOX2 = SearchSpace([ContinuousVariable("x", -5.0, 5.0), ContinuousVariable("y", -5.0, 5.0)])


# -- analytic functions ----------------------------------------------------------


def test_sphere_at_origin():
    objective = BuiltinObjective("sphere", BOX2)
    assert objective(Point([0.0, 0.0])) == 0.0


def test_branin_known_minimum():
    objective = BuiltinObjective("branin", BRANIN_SPACE)
    assert objective(Point([math.pi, 2.275])) == pytest.approx(0.397887, abs=1e-5)
    assert objective(Point([math.pi, 2.275])) == pytest.approx(BRANIN_MINIMUM, abs=1e-9)


def test_rastrigin_at_origin_and_scale():
    space = SearchSpace([ContinuousVariable(f"x{i}", -5.12, 5.12) for i in range(3)])
    objective = BuiltinObjective("rastrigin", space)
    assert objective(Point([0.0, 0.0, 0.0])) == 0.0
    assert objective(Point([1.0, 1.0, 1.0])) == pytest.approx(3.0)  # x=1: x^2 - 10cos(2pi x) + 10 = 1


def test_rosenbrock_minimum_at_ones():
    objective = BuiltinObjective("rosenbrock", BOX2)
    assert objective(Point([1.0, 1.0])) == 0.0


def test_mixed_synthetic_minimum_and_terms():
    objective = BuiltinObjective("mixed_synthetic", MIXED_SYNTHETIC_SPACE)
    assert objective(Point([0.0, 0.0, 3, "a"])) == 0.0
    assert objective(Point([0.0, 0.0, 5, "a"])) == pytest.approx(2.0)  # 0.5*(5-3)^2
    assert objective(Point([0.0, 0.0, 3, "c"])) == pytest.approx(3.0)  # level index 2 * 1.5


def test_deterministic_builtins_bit_identical():
    objective = BuiltinObjective("rastrigin", BOX2)
    p = Point([1.2345, -2.3456])
    assert objective(p) == objective(p)


def test_builtin_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        BuiltinObjective("branin", SearchSpace([ContinuousVariable("x", 0.0, 1.0)]))
    with pytest.raises(SpaceMismatchError):
        BuiltinObjective("unknown_function", BOX2)


def test_noisy_reproducible_per_eval_id():
    objective = BuiltinObjective("noisy", BOX2, {"base": "sphere", "sigma": 0.5}, seed=9)
    p = Point([1.0, 1.0])
    assert objective(p, eval_id=3) == objective(p, eval_id=3)
    assert objective(p, eval_id=3) != objective(p, eval_id=4)
    other_seed = BuiltinObjective("noisy", BOX2, {"base": "sphere", "sigma": 0.5}, seed=10)
    assert objective(p, eval_id=3) != other_seed(p, eval_id=3)


def test_cliff_fails_inside_region():
    objective = BuiltinObjective("cliff", BOX2, {"base": "sphere", "fail_var": 0, "fail_above": 4.5})
    assert objective(Point([4.4, 0.0])) == pytest.approx(19.36)
    with pytest.raises(EvaluationFailed) as err:
        objective(Point([4.75, 0.0]))
    assert err.value.reason == "hidden_constraint"


def test_builtin_values_pinned_bit_for_bit():
    p = Point([1.2345, -2.3456])
    assert BuiltinObjective("sphere", BOX2)(p) == 7.025829610000001
    assert BuiltinObjective("rastrigin", BOX2)(p) == 31.705448636268606
    assert BuiltinObjective("rosenbrock", BOX2)(p) == 1497.4278605395061
    assert BuiltinObjective("branin", BRANIN_SPACE)(Point([2.5, 7.25])) == 21.856729216048514
    assert BuiltinObjective("mixed_synthetic", MIXED_SYNTHETIC_SPACE)(Point([1.25, -0.75, 7, "b"])) == 11.625
    cliff_params = {"base": "rosenbrock", "fail_var": "y", "fail_above": 3.0}
    noisy = BuiltinObjective("noisy", BOX2, {"base": "cliff", "base_params": cliff_params, "sigma": 0.25}, seed=4)
    assert noisy(p, eval_id=3) == 1497.331956799654
    assert noisy(p, eval_id=8) == 1497.4255473477494
    with pytest.raises(EvaluationFailed, match="hidden_constraint"):
        noisy(Point([1.2345, 3.5]), eval_id=3)
    cliff = BuiltinObjective("cliff", BOX2, {"base": "rastrigin", "fail_var": "y", "fail_above": -1.5})
    assert cliff(p) == 31.705448636268606
    with pytest.raises(EvaluationFailed, match="hidden_constraint"):
        cliff(Point([1.2345, 0.5]))


# -- partition ----------------------------------------------------------------------


def _labeled_dataset(counts: dict[str, int], seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    labels = [label for label, n in counts.items() for _ in range(n)]
    return Dataset(rng.standard_normal((len(labels), 2)), labels, ["f0", "f1"])


def test_balanced_partition_counts():
    dataset = _labeled_dataset({"a": 50, "b": 50})
    split = partition(dataset, PartitionSpec(validation_fraction=0.3, seed=1))
    assert len(split.validation) == 30
    assert Counter(split.validation.labels) == {"a": 15, "b": 15}
    assert split.stratified


def test_partition_deterministic():
    dataset = _labeled_dataset({"a": 40, "b": 20})
    one = partition(dataset, PartitionSpec(seed=7))
    two = partition(dataset, PartitionSpec(seed=7))
    assert np.array_equal(one.validation.features, two.validation.features)
    assert one.validation.labels == two.validation.labels


def test_largest_remainder_seven_three():
    dataset = _labeled_dataset({"a": 7, "b": 3})
    split = partition(dataset, PartitionSpec(validation_fraction=0.3, seed=2))
    assert len(split.validation) == 3
    assert Counter(split.validation.labels) == {"a": 2, "b": 1}


def test_partition_disjoint_exhaustive():
    dataset = _labeled_dataset({"a": 13, "b": 8, "c": 5})
    split = partition(dataset, PartitionSpec(validation_fraction=0.25, seed=3))
    combined = sorted(
        [tuple(row) for row in split.train.features] + [tuple(row) for row in split.validation.features]
    )
    assert combined == sorted(tuple(row) for row in dataset.features)
    train_rows = {tuple(row) for row in split.train.features}
    assert all(tuple(row) not in train_rows for row in split.validation.features)


def test_tiny_class_falls_back_unstratified():
    dataset = _labeled_dataset({"a": 9, "b": 1})
    split = partition(dataset, PartitionSpec(validation_fraction=0.3, seed=4))
    assert not split.stratified
    assert len(split.validation) == 3


# -- k-NN -----------------------------------------------------------------------------


def test_duplicate_train_row_classified_correctly():
    train = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), ["a", "b"], ["f0", "f1"])
    validation = Dataset(np.array([[0.0, 0.0]]), ["a"], ["f0", "f1"])
    assert _Scorer(train, validation, 1).error_rate(1, "uniform", 2.0) == 0.0


def test_blobs_task_low_error():
    dataset = make_blobs(n_rows=200, sigma=0.3, separation=4.0, seed=7)
    split = partition(dataset, PartitionSpec(validation_fraction=0.3, seed=7))
    error = _Scorer(split.train, split.validation, 5).error_rate(5, "uniform", 2.0)
    assert error <= 0.05


def test_k_equal_train_size_predicts_majority():
    train = _labeled_dataset({"a": 14, "b": 6}, seed=5)
    validation = _labeled_dataset({"a": 7, "b": 3}, seed=6)
    error = _Scorer(train, validation, len(train)).error_rate(len(train), "uniform", 2.0)
    assert error == pytest.approx(3 / 10)  # every row predicted "a"


def test_error_rate_invariant_under_training_permutation():
    rng = np.random.default_rng(11)
    dataset = make_blobs(n_rows=60, sigma=1.5, separation=2.0, seed=11)
    split = partition(dataset, PartitionSpec(seed=11))
    base = _Scorer(split.train, split.validation, 7).error_rate(7, "inverse", 1.5)
    order = rng.permutation(len(split.train))
    shuffled = Dataset(
        split.train.features[order], [split.train.labels[i] for i in order], split.train.columns
    )
    assert _Scorer(shuffled, split.validation, 7).error_rate(7, "inverse", 1.5) == base


def test_error_rate_bounds_and_validation():
    train = _labeled_dataset({"a": 10, "b": 10}, seed=1)
    validation = _labeled_dataset({"a": 5, "b": 5}, seed=2)
    for k in (1, 5, 20):
        assert 0.0 <= _Scorer(train, validation, k).error_rate(k, "uniform", 2.0) <= 1.0
    with pytest.raises(EvaluationFailed):
        _Scorer(train, validation, 0).error_rate(0, "uniform", 2.0)
    with pytest.raises(EvaluationFailed):
        _Scorer(train, validation, 21).error_rate(21, "uniform", 2.0)
    with pytest.raises(EvaluationFailed):
        _Scorer(train, validation, 1).error_rate(1, "uniform", 0.0)


def _grid_dataset(rng, rows: int, features: int, labels: list[str]) -> Dataset:
    """Rows on the integer grid {0, 1, 2}^features: duplicate rows, equal
    distances and tied votes abound."""
    x = rng.integers(0, 3, (rows, features)).astype(float)
    y = [labels[i] for i in rng.integers(0, len(labels), rows)]
    return Dataset(x, y, [f"f{j}" for j in range(features)])


@pytest.mark.parametrize("power", [0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("weight", ["uniform", "inverse"])
def test_error_rate_equals_scalar_oracle_on_tie_heavy_data(weight, power):
    rng = np.random.default_rng(23)
    train = _grid_dataset(rng, 30, 2, ["a", "b", "c"])
    validation = _grid_dataset(rng, 20, 2, ["a", "b", "c", "z"])  # "z": no training row has it
    assert len({tuple(row) for row in train.features}) < len(train)
    assert "z" in validation.labels
    for k in (1, 2, 3, 4, len(train)):
        expected = scalar_knn_error_rate(train, validation, k, weight, power)
        assert _Scorer(train, validation, k).error_rate(k, weight, power) == expected


@pytest.mark.parametrize("features", [1, 6, 9, 17, 130])
def test_error_rate_equals_scalar_oracle_on_continuous_data(features):
    rng = np.random.default_rng(features)
    train = Dataset(rng.standard_normal((40, features)), list(rng.choice(["a", "b"], 40)), [""] * features)
    validation = Dataset(rng.standard_normal((25, features)), list(rng.choice(["a", "b"], 25)), [""] * features)
    for k, weight, power in [(1, "uniform", 2.0), (2, "inverse", 0.5), (7, "inverse", 3.7), (40, "uniform", 1.0)]:
        expected = scalar_knn_error_rate(train, validation, k, weight, power)
        assert _Scorer(train, validation, k).error_rate(k, weight, power) == expected


@pytest.mark.parametrize("features", [0, 1, 7, 8, 9, 16, 17, 128, 129, 136, 300])
def test_minkowski_distances_equal_the_summed_tensor(features):
    rng = np.random.default_rng(features)
    a = rng.standard_normal((9, features)) * 10.0 ** rng.integers(-4, 4, (9, features))
    b = rng.standard_normal((11, features))
    kept: list[np.ndarray] = []  # planes reused across calls, left dirty by the last one

    def plane(i: int) -> np.ndarray:
        while len(kept) <= i:
            kept.append(np.full((len(a), len(b)), np.nan))
        return kept[i]

    for power in (0.5, 1.0, 1.37, 2.0, 3.3):
        expected = np.sum(np.abs(a[:, None, :] - b[None, :, :]) ** power, axis=2) ** (1.0 / power)
        assert np.array_equal(minkowski_distances(a, b, power), expected)
        assert np.array_equal(minkowski_distances(a, b, power, plane), expected)
    # a sum and a term plane; eight partials and a term; one more per level of halving
    assert len(kept) == (2 if features < 8 else 9 if features <= 128 else 10 + (features > 256))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nearest_equals_a_stable_argsort(seed):
    rng = np.random.default_rng(seed)
    n_cols = 12
    tie_heavy = rng.integers(0, 4, (6, n_cols))
    distinct = np.array([rng.permutation(n_cols) for _ in range(6)])
    dists = rng.permutation(np.vstack([tie_heavy, distinct])).astype(float)
    mixed = 0  # values of k at which crowded and uncrowded rows meet in one call
    for k in range(1, n_cols + 1):
        kth = np.sort(dists, axis=1)[:, k - 1 : k]
        crowded = np.count_nonzero(dists <= kth, axis=1) > k
        mixed += bool(crowded.any() and not crowded.all())
        cols, near = _nearest(dists, k)
        expected_cols, expected_near = stable_nearest(dists, k)
        assert np.array_equal(cols, expected_cols)
        assert np.array_equal(near, expected_near)
    assert mixed > 0


def _knn_objective(kind: str) -> KnnObjective:
    """A fresh objective on tie-heavy grid rows or on blobs."""
    if kind == "grid":
        dataset = _grid_dataset(np.random.default_rng(29), 60, 2, ["a", "b", "c"])
    else:
        dataset = make_blobs(n_rows=90, n_features=3, sigma=1.0, separation=1.5, seed=29)
    return KnnObjective(default_knn_space(train_rows=40), dataset, PartitionSpec(seed=29))


def _kept_bytes(objective: KnnObjective) -> int:
    return sum(array.nbytes for entry in objective._scorer._kept.values() for array in entry)


@pytest.mark.parametrize("kind", ["grid", "blobs"])
def test_knn_objective_reuses_neighbour_lists_exactly(monkeypatch, kind):
    objective = _knn_objective(kind)
    k_hi = objective.space.variables[0].hi
    train, validation = objective.split.train, objective.split.validation
    points = [
        Point([k, w, p]) for p in (2.0, 0.5, 2.0, 3.7, 0.5) for k in range(1, k_hi + 1) for w in ("uniform", "inverse")
    ]
    expected = {p.values: scalar_knn_error_rate(train, validation, *p.values) for p in points}
    monkeypatch.setattr(knn_module, "BLOCK_BYTES", 7 * 8 * len(train))  # a miss spans several 7-row blocks
    rows_by_power = Counter()
    search = _Scorer._nearest_block

    def counted_block(self, lo, hi, width, power, step):
        rows_by_power[power] += hi - lo
        return search(self, lo, hi, width, power, step)

    monkeypatch.setattr(_Scorer, "_nearest_block", counted_block)
    once = len(validation)  # rows of one computation of a power's neighbour lists
    for order in (points, points[::-1]):
        objective = _knn_objective(kind)
        rows_by_power.clear()
        assert [objective(p) for p in order] == [expected[p.values] for p in order]
        assert rows_by_power == {0.5: once, 2.0: once, 3.7: once}  # one per distinct power: nothing was evicted
        assert _kept_bytes(objective) <= knn_module.NEIGHBOUR_CACHE_BYTES

    # k above the space's bound (a point from outside the space) is computed, not kept
    beyond = Point([k_hi + 5, "inverse", 2.0])
    assert objective(beyond) == scalar_knn_error_rate(train, validation, *beyond.values)
    assert all(array.shape[1] == k_hi for entry in objective._scorer._kept.values() for array in entry)

    objective = _knn_objective(kind)
    objective(points[0])
    entry_bytes = _kept_bytes(objective)  # one power's labels and distances
    monkeypatch.setattr(knn_module, "NEIGHBOUR_CACHE_BYTES", 2 * entry_bytes)  # two of the three powers
    rows_by_power.clear()
    for p in points + points[::-1]:
        assert objective(p) == expected[p.values]
        assert _kept_bytes(objective) <= 2 * entry_bytes
    assert len(objective._scorer._kept) == 2
    assert sum(rows_by_power.values()) > 3 * once  # evicted powers were computed again


def _random_split(rng, n_train: int, n_val: int, features: int) -> tuple[Dataset, Dataset]:
    """Standard-normal train and validation rows labelled at random."""
    return tuple(
        Dataset(rng.standard_normal((n, features)), list(rng.choice(["a", "b", "c"], n)), [""] * features)
        for n in (n_train, n_val)
    )


@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize(
    "features, n_val, data",
    [(1, 23, "normal"), (8, 23, "normal"), (9, 23, "normal"), (17, 23, "normal"), (3, 1, "normal"), (2, 23, "grid")],
)
def test_blocked_neighbour_lists_equal_the_whole_matrix(monkeypatch, rows, features, n_val, data):
    rng = np.random.default_rng(100 * features + n_val)
    if data == "grid":
        train = _grid_dataset(rng, 30, features, ["a", "b", "c"])
        validation = _grid_dataset(rng, n_val, features, ["a", "b", "c", "z"])
    else:
        train, validation = _random_split(rng, 30, n_val, features)
    monkeypatch.setattr(knn_module, "BLOCK_BYTES", rows * 8 * len(train))
    blocks = []
    search = _Scorer._nearest_block

    def counted_block(self, lo, hi, width, power, step):
        blocks.append(hi - lo)
        return search(self, lo, hi, width, power, step)

    monkeypatch.setattr(_Scorer, "_nearest_block", counted_block)
    k_cap = 5
    scorer = _Scorer(train, validation, k_cap)
    for power in (0.5, 2.0, 3.7):
        for k in (k_cap + 4, k_cap):  # k > k_cap is computed and not kept; k_cap then misses too
            blocks.clear()
            labels, near = scorer._neighbours(k, power)
            assert blocks == [rows] * (n_val // rows) + [n_val % rows] * (n_val % rows > 0)
            cols, whole_near = _nearest(minkowski_distances(validation.features, train.features, power), k)
            assert labels.dtype == np.uint8  # the smallest unsigned dtype that holds 3 label codes
            assert np.array_equal(labels, scorer.train_y[cols])
            assert np.array_equal(near, whole_near)
        for k in (1, 3, k_cap, k_cap + 4):
            for weight in ("uniform", "inverse"):
                expected = scalar_knn_error_rate(train, validation, k, weight, power)
                assert scorer.error_rate(k, weight, power) == expected


def _screen_split(rng, kind: str, n_train: int, n_val: int, features: int) -> tuple[Dataset, Dataset]:
    """Train and validation rows on the integer grid {0, 1, 2}; standard
    normal; standard normal offset by 1e4 or scaled by 1e-6; or, for
    "shell", training rows at distance 1 + 1e-9 N(0, 1) from validation rows
    within 1e-12 of the origin, closer together than float32 can tell."""

    def rows(n: int, validation: bool) -> np.ndarray:
        if kind == "grid":
            return rng.integers(0, 3, (n, features)).astype(float)
        x = rng.standard_normal((n, features))
        if kind == "shell":
            if validation:
                return x * 1e-12
            return x / np.linalg.norm(x, axis=1, keepdims=True) * (1 + 1e-9 * rng.standard_normal((n, 1)))
        return x + 1e4 if kind == "offset" else x * 1e-6 if kind == "tiny" else x

    return tuple(
        Dataset(rows(n, validation), list(rng.choice(["a", "b", "c"], n)), [""] * features)
        for n, validation in ((n_train, False), (n_val, True))
    )


def _search_block(scorer: _Scorer, width: int, power: float) -> tuple[np.ndarray, np.ndarray]:
    """The screened search of all validation rows as one block."""
    return scorer._nearest_block(0, len(scorer.val_x), width, power, len(scorer.val_x))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["grid", "normal", "offset", "tiny", "shell"]),
    features=st.sampled_from([1, 6, 9, 17, 130]),
    power=st.sampled_from([0.5, 1.0, 2.0, 3.7]) | st.floats(0.3, 6.0),
    n_train=st.integers(1, 60),
    n_val=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_screened_block_search_equals_the_whole_matrix(kind, features, power, n_train, n_val, seed, data):
    rng = np.random.default_rng(seed)
    train, validation = _screen_split(rng, kind, n_train, n_val, features)
    columns = st.integers(1, min(n_train, 12)) | st.integers(1, n_train)  # often few enough to screen
    k = data.draw(columns, label="k")
    k_cap = data.draw(columns, label="k_cap")  # k > k_cap computes max(k, k_cap) columns
    width = max(k, k_cap)
    scorer = _Scorer(train, validation, k_cap)
    cols, near = _search_block(scorer, width, power)
    expected_cols, expected_near = _nearest(minkowski_distances(validation.features, train.features, power), width)
    assert np.array_equal(cols, expected_cols)
    assert near.tobytes() == expected_near.tobytes()
    labels, kept_near = scorer._neighbours(k, power)
    assert np.array_equal(labels, scorer.train_y[expected_cols]) and kept_near.tobytes() == expected_near.tobytes()


def _counting_exact_rows(monkeypatch) -> list[int]:
    """Rows of every exact whole-row distance computation from now on."""
    rows = []

    def counted_distances(a, b, power, plane=None):
        rows.append(len(a))
        return minkowski_distances(a, b, power, plane)

    monkeypatch.setattr(knn_module, "minkowski_distances", counted_distances)
    return rows


@pytest.mark.parametrize("kind", ["normal", "offset", "tiny"])
@pytest.mark.parametrize("power", [0.5, 1.0, 2.0, 3.7])
def test_the_screen_settles_every_row_of_continuous_data(monkeypatch, kind, power):
    rng = np.random.default_rng(53)
    train, validation = _screen_split(rng, kind, 200, 40, 6)
    exact_rows = _counting_exact_rows(monkeypatch)
    cols, near = _search_block(_Scorer(train, validation, 10), 10, power)
    assert exact_rows == []  # no row needed the exact path
    expected_cols, expected_near = _nearest(minkowski_distances(validation.features, train.features, power), 10)
    assert np.array_equal(cols, expected_cols) and np.array_equal(near, expected_near)


def test_a_screen_that_overflows_float32_takes_the_exact_path(monkeypatch):
    rng = np.random.default_rng(59)
    train, validation = (Dataset(rng.uniform(0, 10, (n, 3)), ["a"] * n, [""] * 3) for n in (60, 20))
    scorer = _Scorer(train, validation, 5)
    exact_rows = _counting_exact_rows(monkeypatch)
    cols, near = _search_block(scorer, 5, 60.0)  # differences above 4.4 overflow float32 at power 60
    assert np.isinf(scorer._local.planes[0]).any(axis=1).all()
    assert exact_rows == [len(validation)]
    expected_cols, expected_near = _nearest(minkowski_distances(validation.features, train.features, 60.0), 5)
    assert np.array_equal(cols, expected_cols) and np.array_equal(near, expected_near)
    assert np.isfinite(near).all()


def test_a_row_with_more_ties_than_candidates_takes_the_exact_path(monkeypatch):
    rng = np.random.default_rng(61)
    k = 5
    copies = np.ones((3 * (k + knn_module.SCREEN_EXTRA), 2))  # one point, tied far beyond the candidates
    distinct = 20.0 + rng.standard_normal((30, 2))
    train_x = rng.permutation(np.vstack([copies, distinct]))
    train = Dataset(train_x, ["a"] * len(train_x), [""] * 2)
    validation = Dataset(np.array([[0.0, 0.0], [20.0, 20.0]]), ["a", "a"], [""] * 2)  # tied, then settled
    exact_rows = _counting_exact_rows(monkeypatch)
    cols, near = _search_block(_Scorer(train, validation, k), k, 2.0)
    assert exact_rows == [1]  # only the tied row
    expected_cols, expected_near = _nearest(minkowski_distances(validation.features, train.features, 2.0), k)
    assert np.array_equal(cols, expected_cols) and np.array_equal(near, expected_near)
    assert list(cols[0]) == list(np.flatnonzero((train_x == 1.0).all(axis=1))[:k])  # the earliest copies


def test_rows_whose_neighbours_the_screen_cannot_order_take_the_exact_path(monkeypatch):
    exact_rows = _counting_exact_rows(monkeypatch)
    power = 2.0  # Euclidean: the shell's rows are all about 1 from each validation row
    for seed in range(10):
        train, validation = _screen_split(np.random.default_rng(seed), "shell", 60, 3, 3)
        exact_rows.clear()
        cols, near = _search_block(_Scorer(train, validation, 5), 5, power)
        assert exact_rows == [len(validation)]  # every training row lies within the screen's error of the 5th
        expected_cols, expected_near = _nearest(minkowski_distances(validation.features, train.features, power), 5)
        assert np.array_equal(cols, expected_cols) and np.array_equal(near, expected_near)


def test_a_neighbour_list_miss_works_in_bounded_memory():
    train, validation = _random_split(np.random.default_rng(41), 3000, 2000, 4)
    scorer = _Scorer(train, validation, 5)
    tracemalloc.start()
    try:
        scorer.error_rate(5, "inverse", 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20  # the whole 2000 x 3000 distance matrix alone takes 45.8 MiB


def test_each_thread_reuses_its_own_block_planes():
    for features, n_val in ((4, 200), (9, 40), (130, 40)):  # both _pairwise_sum regimes of the exact distances
        train, validation = _random_split(np.random.default_rng(43), 300, n_val, features)
        scorer = _Scorer(train, validation, 5)

        def miss(power: float) -> list[int]:
            expected = scalar_knn_error_rate(train, validation, 5, "uniform", power)
            assert scorer.error_rate(5, "uniform", power) == expected
            assert all(plane.dtype == np.float32 for plane in scorer._local.planes)
            return [id(plane) for plane in scorer._local.planes]

        first = miss(1.5)
        assert len(first) == 2  # a sum and a term plane of the float32 screen, at any feature count
        assert miss(2.5) == first  # the next miss on this thread works in the same planes
        with ThreadPoolExecutor(max_workers=1) as pool:
            other = pool.submit(miss, 3.5).result(timeout=60)
        assert len(other) == 2 and not set(other) & set(first)


def test_knn_objective_shared_by_threads_matches_serial():
    dataset = make_blobs(n_rows=400, n_features=4, sigma=1.0, separation=1.5, seed=5)
    space = default_knn_space(train_rows=280)
    objective = KnnObjective(space, dataset, PartitionSpec(seed=5))
    points = [Point([k, w, p]) for k in (1, 4, 17, 31) for w in ("uniform", "inverse") for p in (0.7, 2.0, 3.1)]
    serial = [objective(p) for p in points]
    fresh = KnnObjective(space, dataset, PartitionSpec(seed=5))  # workers race to fill the same entries
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = [pool.map(fresh, points, timeout=60) for _ in range(4)]
            assert all(list(values) == serial for values in concurrent)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(fresh._scorer._kept) == [0.7, 2.0, 3.1]
    assert fresh._scorer._kept_bytes == _kept_bytes(fresh)


def test_knn_objective_point_mapping():
    from tunekit.objectives import default_knn_space

    dataset = make_blobs(n_rows=100, seed=3)
    space = default_knn_space(train_rows=70)
    objective = KnnObjective(space, dataset, PartitionSpec(seed=3))
    value = objective(Point([5, "uniform", 2.0]))
    assert 0.0 <= value <= 1.0


def test_knn_objective_k_bound_checked_at_construction():
    dataset = make_blobs(n_rows=20, seed=3)  # 14 training rows after the split
    space = SearchSpace(
        [
            IntegerVariable("k", 1, 50),
            *default_knn_space(50).variables[1:],
        ]
    )
    with pytest.raises(ValueError):
        KnnObjective(space, dataset, PartitionSpec(seed=3))


@pytest.mark.parametrize(
    "index, variable",
    [
        (0, IntegerVariable("k", 0, 5)),
        (0, ContinuousVariable("k", 1.0, 5.0)),
        (0, None),
        (1, CategoricalVariable("weight", ("uniform", "foo"))),
        (1, ContinuousVariable("weight", 0.0, 1.0)),
        (2, ContinuousVariable("power", 0.0, 4.0)),
        (2, IntegerVariable("power", 1, 4)),
    ],
)
def test_knn_objective_rejects_a_space_that_can_only_fail(index, variable):
    knn_vars = list(default_knn_space(5).variables)
    name = knn_vars[index].name
    knn_vars[index : index + 1] = [] if variable is None else [variable]
    with pytest.raises(SpaceMismatchError, match=f"variable '{name}'"):
        KnnObjective(SearchSpace(knn_vars), make_blobs(n_rows=20, seed=3), PartitionSpec(seed=3))


# -- CSV ----------------------------------------------------------------------------------


def test_load_csv_roundtrip(tmp_path: Path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b,y\n1,2,pos\n3,4,neg\n5,6,pos\n", encoding="utf-8")
    dataset = load_csv(csv_path, "y")
    assert len(dataset) == 3
    assert dataset.columns == ["a", "b"]
    assert dataset.labels == ["pos", "neg", "pos"]
    assert dataset.features[1].tolist() == [3.0, 4.0]


def test_load_csv_missing_label_column(tmp_path: Path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_csv(csv_path, "y")
    assert "y" in str(err.value)


def test_load_csv_unparseable_cell_cites_row(tmp_path: Path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b,y\n1,x,0\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_csv(csv_path, "y")
    assert "row 1" in str(err.value)


def test_load_csv_empty_and_ragged(tmp_path: Path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_csv(empty, "y")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,y\n1,2\n", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_csv(ragged, "y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite_feature(tmp_path: Path, cell):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(f"a,b,y\n1,2,pos\n3,{cell},neg\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_csv(csv_path, "y")
    assert "row 2" in str(err.value)


# -- external protocol -----------------------------------------------------------------------


def _stub(tmp_path: Path, body: str) -> list[str]:
    script = tmp_path / "stub.py"
    script.write_text(body, encoding="utf-8")
    return [sys.executable, str(script)]


ECHO_OK = """\
import json, sys
line = sys.stdin.readline()
payload = json.loads(line)
print(json.dumps({"objective": payload["params"]["x"] * 2}))
"""


def test_external_protocol_roundtrip(tmp_path: Path):
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    objective = ExternalObjective(space, _stub(tmp_path, ECHO_OK), timeout_ms=5000)
    assert objective(Point([0.75])) == pytest.approx(1.5)


def test_external_nonzero_exit(tmp_path: Path):
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    objective = ExternalObjective(space, _stub(tmp_path, "import sys; sys.exit(2)"), timeout_ms=5000)
    with pytest.raises(EvaluationFailed) as err:
        objective(Point([1.0]))
    assert err.value.reason == "nonzero_exit"


def test_external_timeout_with_grace(tmp_path: Path):
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    objective = ExternalObjective(
        space, _stub(tmp_path, "import time; time.sleep(30)"), timeout_ms=300
    )
    started = time.perf_counter()
    with pytest.raises(EvaluationFailed) as err:
        objective(Point([1.0]))
    elapsed_ms = (time.perf_counter() - started) * 1000
    assert err.value.reason == "timeout"
    assert elapsed_ms <= 300 + 500


def test_external_parse_error(tmp_path: Path):
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    objective = ExternalObjective(space, _stub(tmp_path, "print('not json')"), timeout_ms=5000)
    with pytest.raises(EvaluationFailed) as err:
        objective(Point([1.0]))
    assert err.value.reason == "parse_error"


def test_external_missing_command_is_failure():
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    objective = ExternalObjective(space, ["/does/not/exist"], timeout_ms=500)
    with pytest.raises(EvaluationFailed) as err:
        objective(Point([1.0]))
    assert err.value.reason == "nonzero_exit"


def test_external_reported_fail_status(tmp_path: Path):
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    body = 'print(\'{"objective": 1.0, "status": "diverged"}\')'
    objective = ExternalObjective(space, _stub(tmp_path, body), timeout_ms=5000)
    with pytest.raises(EvaluationFailed) as err:
        objective(Point([1.0]))
    assert err.value.reason == "diverged"


def _running(pid: int) -> bool:
    """Whether pid is a live process (a zombie waiting to be reaped is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


LEAVES_A_GRANDCHILD = """\
import subprocess, sys, time
child = subprocess.Popen(["sleep", "30"], stdout={stdout}, stderr=subprocess.DEVNULL)
open({pid_file!r}, "w").write(str(child.pid))
print('{{"objective": 1.0}}', flush=True)
{then}
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
@pytest.mark.parametrize(
    "stdout, then, reason",
    [
        ("None", "time.sleep(30)", "timeout"),  # the grandchild holds stdout open too
        ("subprocess.DEVNULL", "", None),  # the script exits 0 and leaves it behind
    ],
    ids=["timeout", "clean_exit"],
)
def test_external_evaluation_leaves_no_process_behind(tmp_path: Path, stdout, then, reason):
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    pid_file = tmp_path / "grandchild.pid"
    body = LEAVES_A_GRANDCHILD.format(stdout=stdout, pid_file=str(pid_file), then=then)
    objective = ExternalObjective(space, _stub(tmp_path, body), timeout_ms=1500)
    pid = None
    try:
        if reason is None:
            assert objective(Point([1.0])) == 1.0
        else:
            with pytest.raises(EvaluationFailed) as err:
                objective(Point([1.0]))
            assert err.value.reason == reason
        pid = int(pid_file.read_text(encoding="utf-8"))
        deadline = time.monotonic() + 5.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(pid)
    finally:
        if pid is not None and _running(pid):
            os.kill(pid, signal.SIGKILL)


def _group_members(pgid: int) -> list[int]:
    """The live processes (not zombies) whose process group is pgid."""
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text(encoding="utf-8").rsplit(")", 1)[1].split()
            except (FileNotFoundError, ProcessLookupError):
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                members.append(int(entry.name))
    return members


HANGS_WITH_A_GRANDCHILD = """\
import os, subprocess, sys, time
child = subprocess.Popen(["sleep", "30"], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
open({pid_file!r}, "w").write(f"{{os.getpid()}} {{child.pid}}")
time.sleep(30)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
def test_interrupt_during_an_external_evaluation_on_the_caller(tmp_path: Path):
    # At K = 1 the command runs under the calling thread: SIGINT must reach
    # `run` promptly as KeyboardInterrupt and leave nothing of the command's group.
    if threading.current_thread() is not threading.main_thread():
        pytest.skip("SIGINT is handled on the main thread")
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    pid_file = tmp_path / "pids"
    body = HANGS_WITH_A_GRANDCHILD.format(pid_file=str(pid_file))
    objective = ExternalObjective(space, _stub(tmp_path, body), timeout_ms=20000)
    main = threading.get_ident()
    sent: list[float] = []

    def pids() -> list[int]:  # the command's and its grandchild's, once both started
        return [int(w) for w in pid_file.read_text(encoding="utf-8").split()] if pid_file.exists() else []

    def interrupt() -> None:
        deadline = time.monotonic() + 10.0
        while len(pids()) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        sent.append(time.monotonic())
        signal.pthread_kill(main, signal.SIGINT)

    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    sender = threading.Thread(target=interrupt)
    try:
        sender.start()
        manager = TuningManager(space)
        manager.register_solver(RandomSearch(space, seed=3, batch=2))
        with pytest.raises(KeyboardInterrupt):
            manager.run(objective, Budget(4, max_concurrency=1))
        raised = time.monotonic()
        sender.join(10.0)
        assert not sender.is_alive() and len(pids()) == 2
        assert raised - sent[0] < 2.0  # not the command's 30 s, nor the 20 s timeout
        assert _group_members(pids()[0]) == []  # the command and its grandchild are gone
    finally:
        signal.signal(signal.SIGINT, handler)
        for pid in pids():
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


# -- build_objective factory --------------------------------------------------------------------


def test_build_objective_dispatch(tmp_path: Path):
    builtin = build_objective({"builtin": {"name": "sphere"}}, BOX2, seed=1)
    assert builtin(Point([0.0, 0.0]), 0) == 0.0

    from tunekit.objectives import default_knn_space

    knn_space = default_knn_space(70)
    knn = build_objective(
        {"knn": {"dataset": {"blobs": {"n_rows": 100}}, "validation_fraction": 0.3}},
        knn_space,
        seed=2,
    )
    assert 0.0 <= knn(Point([3, "inverse", 2.0]), 0) <= 1.0

    with pytest.raises(ValueError):
        build_objective({"mystery": {}}, BOX2)
