"""Point identity and dedup: canonical keys, records that carry them, first
asker wins, and one evaluation per key at any concurrency."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import ScriptedSolver, counted
from tunekit.cache import canonical_key
from tunekit.manager import Solver, TuningManager
from tunekit.space import (
    CategoricalVariable,
    ContinuousVariable,
    IntegerVariable,
    Point,
    SearchSpace,
    decode,
)
from tunekit.trials import Budget

SPACE = SearchSpace(
    [
        ContinuousVariable("x", 0.0, 1.0),
        IntegerVariable("k", 1, 5),
        CategoricalVariable("c", ("a", "b")),
    ]
)


def objective(point: Point, eval_id: int) -> float:
    x, k, c = point.values
    return float(x) + k + ("a", "b").index(c)


def run(solvers: list[Solver], budget: int = 1000, concurrency: int = 1):
    manager = TuningManager(SPACE)
    for solver in solvers:
        manager.register_solver(solver)
    fn = counted(objective)
    return manager.run(fn, Budget(budget, max_concurrency=concurrency)), fn.calls


def test_lookup_after_insert():
    p = Point([0.5, 3, "a"])
    solver = ScriptedSolver([[p], [p]])
    history, calls = run([solver])
    assert len(calls) == 1
    first, replay = solver.told
    assert replay is first  # the second ask is answered from the cache
    assert first.key == canonical_key(SPACE, p) and first.objective == 3.5


def test_tiny_coordinate_perturbation_same_key():
    p = Point([0.5, 3, "a"])
    nudged = decode(SPACE, [0.5 + 1e-14, 0.5, 0.0])
    assert nudged.values[0] != 0.5  # genuinely different raw value
    assert canonical_key(SPACE, nudged) == canonical_key(SPACE, p)
    history, calls = run([ScriptedSolver([[p], [nudged]])])
    assert len(calls) == 1 and history.cache_hits == 1


def test_lookup_missing_point():
    history, calls = run([ScriptedSolver([[Point([0.5, 3, "a"])], [Point([0.1, 1, "a"])]])])
    assert len(calls) == 2 and history.cache_hits == 0


def test_duplicate_insert_keeps_first_record():
    p = Point([0.25, 2, "b"])
    first, second = ScriptedSolver([[p]]), ScriptedSolver([[p]])
    history, calls = run([first, second])
    assert len(calls) == 1
    assert [r.solver_id for r in history.records] == ["scriptedsolver-0"]  # the first asker owns it
    assert first.told == second.told == history.records


def test_categorical_levels_produce_distinct_keys():
    pa, pb = Point([0.5, 3, "a"]), Point([0.5, 3, "b"])
    assert canonical_key(SPACE, pa) != canonical_key(SPACE, pb)
    history, calls = run([ScriptedSolver([[pa, pb]])])
    assert len(calls) == 2


def test_size_matches_set_of_keys_oracle():
    rng = np.random.default_rng(0)
    points = [Point([round(float(rng.random()), 1), int(rng.integers(1, 6)), "a"]) for _ in range(500)]
    batches = [points[i : i + 7] for i in range(0, len(points), 7)]
    history, calls = run([ScriptedSolver(batches)])
    keys = {canonical_key(SPACE, p) for p in points}
    assert len(history.records) == len(calls) == len(keys)
    assert history.cache_hits == len(points) - len(keys)
    assert {r.key for r in history.records} == keys
    assert all(r.key == canonical_key(SPACE, r.point) for r in history.records)


def test_concurrent_same_key_single_winner():
    p = Point([0.75, 4, "b"])
    solvers = [ScriptedSolver([[p]]) for _ in range(8)]
    history, calls = run(solvers, concurrency=8)
    assert len(calls) == 1 and len(history.records) == 1
    assert all(s.told == history.records for s in solvers)


def test_concurrent_mixed_keys():
    points = [Point([i / 16, 1 + i % 5, "a"]) for i in range(16)]
    solvers = [ScriptedSolver([points[i % 2 :: 2]]) for i in range(6)]
    history, calls = run(solvers, concurrency=4)
    assert len(calls) == len(history.records) == 16
    assert {r.key for r in history.records} == {canonical_key(SPACE, p) for p in points}


def test_neighbouring_integers_at_the_range_limit_get_distinct_keys():
    from tunekit.config import ConfigError, build_space
    from tunekit.space import KEY_DIGITS

    width = 10**KEY_DIGITS
    for lo in (0, -(width // 2), 2**53 - width):
        space = build_space([{"name": "k", "type": "integer", "bounds": [lo, lo + width]}])
        for v in (lo, lo + 1, lo + width // 2, lo + width // 2 + 1, lo + width - 1):
            assert canonical_key(space, Point([v])) != canonical_key(space, Point([v + 1]))
    for bounds in ([0, width + 1], [0, 2**60], [2**60, 2**60 + 10], [-(2**53) - 1, 0]):
        with pytest.raises(ConfigError, match="k.bounds too large"):
            build_space([{"name": "k", "type": "integer", "bounds": bounds}])
        with pytest.raises(ValueError, match="k.bounds too large"):
            IntegerVariable("k", *bounds)
