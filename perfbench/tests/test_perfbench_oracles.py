"""Small checks of the benchmark's own oracles and tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from tracer import Tracer

MIXED = [
    {"name": "x", "type": "continuous", "bounds": [-2.0, 6.0]},
    {"name": "k", "type": "integer", "bounds": [0, 12]},
    {"name": "c", "type": "categorical", "levels": ["a", "b", "c"]},
]


def test_mixed_synthetic_by_hand():
    assert oracles.mixed_synthetic(MIXED, [0.0, 3, "a"]) == 0.0
    assert oracles.mixed_synthetic(MIXED, [2.0, 5, "c"]) == 4.0 + 0.5 * 4 + 1.5 * 2


def test_rosenbrock_by_hand():
    assert oracles.rosenbrock([], [1.0, 1.0, 1.0]) == 0.0
    # 100 * (1 - 0)^2 + (1 - 0)^2 for the pair (0, 1)
    assert oracles.rosenbrock([], [0.0, 1.0]) == 101.0


def test_unit_encode():
    assert oracles.unit_encode(MIXED, [-2.0, 12, "b"]) == [0.0, 1.0, 1.0]
    assert oracles.unit_encode(MIXED, [2.0, 3, "a"]) == [0.5, 0.25, 0.0]


def test_knn_error_counts_misses():
    train = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels = ["a", "a", "b", "b"]
    val = np.array([[0.4], [10.6], [0.2]])
    assert oracles.knn_error(train, labels, val, ["a", "b", "b"], k=1, weight="uniform", power=2.0) == 1 / 3


def test_knn_ties_break_by_training_order_then_smallest_label():
    train = np.array([[-1.0], [1.0], [3.0]])
    # the query is equidistant from rows 0 and 1: k=1 takes row 0 ("b")
    assert oracles.knn_error(train, ["b", "a", "a"], np.array([[0.0]]), ["b"], 1, "uniform", 2.0) == 0.0
    # k=2 takes rows 0 and 1, one vote each: the tie goes to "a"
    assert oracles.knn_error(train, ["b", "a", "a"], np.array([[0.0]]), ["a"], 2, "uniform", 2.0) == 0.0


def test_knn_inverse_weights_and_minkowski_power():
    train = np.array([[0.0, 0.0], [3.0, 4.0], [3.5, 4.0]])
    labels = ["a", "b", "b"]
    # one close "a" outweighs two far "b" under inverse weights, not uniform
    query = np.array([[0.5, 0.0]])
    assert oracles.knn_error(train, labels, query, ["a"], 3, "inverse", 2.0) == 0.0
    assert oracles.knn_error(train, labels, query, ["a"], 3, "uniform", 2.0) == 1.0
    # under power 1 the query is nearer (0, 0), under power 2 nearer (3, 4)
    far = np.array([[0.0, 0.0], [3.0, 4.0]])
    near = np.array([[5.5, 0.0]])
    assert oracles.knn_error(far, ["a", "b"], near, ["a"], 1, "uniform", 1.0) == 0.0
    assert oracles.knn_error(far, ["a", "b"], near, ["b"], 1, "uniform", 2.0) == 0.0


def test_dense_gp_posterior_two_points_closed_form():
    x = np.array([[0.0], [1.0]])
    y = np.array([1.0, 3.0])
    sf2, ell, jitter = 2.0, 0.5, 1e-3
    k12 = sf2 * math.exp(-1.0 / (2 * ell**2))
    gram = np.array([[sf2 + jitter, k12], [k12, sf2 + jitter]])
    q = np.array([[0.25]])
    k_star = sf2 * np.exp(-np.array([0.25, 0.75]) ** 2 / (2 * ell**2))
    inv = np.linalg.inv(gram)
    mean, var = oracles.dense_gp_posterior(x, y, q, ell, sf2, jitter, [False])
    assert mean[0] == pytest.approx(2.0 + k_star @ inv @ (y - 2.0), rel=1e-12)
    assert var[0] == pytest.approx(sf2 - k_star @ inv @ k_star, rel=1e-12)


def test_dense_gp_interpolates_with_tiny_jitter():
    x = np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]])
    y = np.array([4.0, -1.0, 2.5])
    mean, var = oracles.dense_gp_posterior(x, y, x, 0.4, 1.0, 1e-10, [False, False])
    assert mean == pytest.approx(y, abs=1e-6)
    assert var == pytest.approx([0.0, 0.0, 0.0], abs=1e-6)


def test_categorical_channels_count_mismatches():
    a = np.array([[0.5, 2.0]])
    b = np.array([[0.0, 1.0], [0.0, 2.0]])
    assert oracles.sq_distance_matrix(a, b, [False, True]).tolist() == [[0.25 + 1.0, 0.25]]


def test_gp_hyperparameters_by_hand():
    x = np.array([[0.0], [0.3], [1.0]])
    y = np.array([1.0, 2.0, 6.0])
    length_scale, signal_var = oracles.gp_hyperparameters(x, y, [False])
    assert length_scale == pytest.approx(0.7)  # distances 0.3, 1.0, 0.7
    assert signal_var == pytest.approx(7.0)  # mean 3, squares 4 + 1 + 9 over 2
    assert oracles.gp_hyperparameters(np.zeros((2, 1)), np.ones(2), [False]) == (1.0, 1.0)


def span(i, parent, name, start, end, thread=0):
    return (i, parent, name, thread, start, end, None, None)


def test_self_times_subtract_children_only():
    spans = [
        span(0, -1, "manager.run", 0.0, 10.0),
        span(1, 0, "solvers.x.ask", 1.0, 4.0),
        span(2, 1, "space.encode", 2.0, 3.0),
        span(3, 0, "space.validate", 5.0, 6.0),
        span(4, -1, "objectives.eval", 0.5, 9.5, thread=1),
    ]
    own = oracles.self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 9.0}
    assert oracles.layer_self_time(spans, "space.") == 2.0
    assert sum(own.values()) == pytest.approx(10.0 + 9.0)


def test_tracer_wraps_every_binding_and_restores_them():
    import tunekit.cache
    import tunekit.solvers.bayes
    from tunekit.space import ContinuousVariable, Point, SearchSpace

    original = tunekit.cache.canonical_key
    tracer = Tracer()
    tracer.install([("cache.key", "tunekit.cache:canonical_key", None)])
    try:
        assert tunekit.solvers.bayes.canonical_key is tunekit.cache.canonical_key
        assert tunekit.cache.canonical_key is not original
        space = SearchSpace([ContinuousVariable("x", 0.0, 1.0)])
        tunekit.solvers.bayes.canonical_key(space, Point([0.5]))
        tunekit.cache.EvalCache(space).key(Point([0.25]))
    finally:
        tracer.uninstall()
    assert tunekit.cache.canonical_key is original
    assert tunekit.solvers.bayes.canonical_key is original
    assert [s[2] for s in tracer.spans] == ["cache.key", "cache.key"]
    assert tracer.missing == []


def test_tracer_lists_targets_it_cannot_find():
    tracer = Tracer()
    tracer.install([("x", "tunekit.cache:no_such_function", None)])
    assert tracer.missing == ["tunekit.cache:no_such_function"]
