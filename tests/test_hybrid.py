"""Default hybrid search: center selection, compass polls, GA operators,
sufficient-decrease growth updates, and end-to-end behavior."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import encoded_distance
from tunekit.cache import canonical_key
from tunekit.manager import TuningManager
from tunekit.solvers.hybrid import (
    HybridConfig,
    HybridSearch,
    Member,
    growth_update,
    make_children,
    nearest_neighbor_distances,
    pareto_front,
    poll_points,
    select_centers,
)
from tunekit.space import (
    CategoricalVariable,
    ContinuousVariable,
    IntegerVariable,
    Point,
    SearchSpace,
    encode,
    is_valid,
)
from tunekit.trials import Budget, TrialRecord

UNIT2 = SearchSpace([ContinuousVariable("x", 0.0, 1.0), ContinuousVariable("y", 0.0, 1.0)])
BOX2 = SearchSpace([ContinuousVariable("x", -5.0, 5.0), ContinuousVariable("y", -5.0, 5.0)])
MIXED = SearchSpace(
    [
        ContinuousVariable("x", 0.0, 1.0),
        IntegerVariable("k", 1, 31),
        CategoricalVariable("c", ("a", "b", "c")),
    ]
)


def member(space: SearchSpace, values, objective: float, delta: float = 0.1, eval_id: int = 1) -> Member:
    return Member(rec(space, Point(values), objective, eval_id), delta)


def rec(space: SearchSpace, p: Point, objective: float, eval_id: int) -> TrialRecord:
    return TrialRecord(
        point=p,
        key=canonical_key(space, p),
        encoded=encode(space, p),
        objective=objective,
        status="ok",
        solver_id="t",
        iteration=1,
        eval_id=eval_id,
    )


def sphere(point: Point, eval_id: int = 0) -> float:
    return sum(float(v) ** 2 for v in point.values)


# -- config ------------------------------------------------------------------


def test_config_invariants():
    with pytest.raises(ValueError):
        HybridConfig(population=5, centers=5)
    with pytest.raises(ValueError):
        HybridConfig(alpha=0.0)
    with pytest.raises(ValueError):
        HybridConfig(delta_init=0.0)
    with pytest.raises(ValueError):
        HybridConfig(population=5, elites=5)
    with pytest.raises(ValueError):
        HybridConfig(alpha=1.0)
    with pytest.raises(ValueError):
        HybridConfig(crossover_prob=1.5)


# -- select_centers -------------------------------------------------------------


def test_single_center_is_best_member():
    members = [member(UNIT2, [0.1, 0.1], 3.0), member(UNIT2, [0.9, 0.9], 1.0)]
    chosen = select_centers(UNIT2, members, 1, np.random.default_rng(0))
    assert chosen == [members[1]]


def test_two_members_both_selected():
    members = [member(UNIT2, [0.1, 0.1], 3.0), member(UNIT2, [0.9, 0.9], 1.0)]
    chosen = select_centers(UNIT2, members, 2, np.random.default_rng(0))
    assert set(id(m) for m in chosen) == set(id(m) for m in members)


def test_abstract_pareto_pairs_match_hand_oracle():
    # (objective, nn distance) pairs (1,0.1), (2,0.5), (3,0.9): hand
    # enumeration finds no dominance in any direction, so all three survive
    # and any non-best one may be drawn as the second center.
    front = pareto_front([1.0, 2.0, 3.0], [0.1, 0.5, 0.9])
    assert front == [0, 1, 2]


def test_second_center_drawn_from_front():
    # three tight pairs create three nn tiers (0.04, 0.08, 0.12); the cheap
    # member of each tier is nondominated, its twin is dominated.
    members = [
        member(UNIT2, [0.5, 0.5], 1.0, eval_id=1),
        member(UNIT2, [0.54, 0.5], 10.0, eval_id=2),
        member(UNIT2, [0.0, 0.0], 2.0, eval_id=3),
        member(UNIT2, [0.0, 0.08], 11.0, eval_id=4),
        member(UNIT2, [1.0, 1.0], 3.0, eval_id=5),
        member(UNIT2, [1.0, 0.88], 12.0, eval_id=6),
    ]
    seen_second = set()
    for seed in range(40):
        chosen = select_centers(UNIT2, members, 2, np.random.default_rng(seed))
        assert chosen[0] is members[0]
        assert chosen[1] in (members[2], members[4])
        seen_second.add(id(chosen[1]))
    assert len(seen_second) == 2  # both nondominated members get drawn


def test_nearest_neighbor_distances_match_scalar_oracle():
    rng = np.random.default_rng(4)
    members = [
        member(MIXED, [float(rng.random()), int(rng.integers(1, 32)), ("a", "b", "c")[i % 3]], 1.0)
        for i in range(7)
    ]
    expected = [
        min(encoded_distance(MIXED, m.rec.encoded, o.rec.encoded) for o in members if o is not m) for m in members
    ]
    assert nearest_neighbor_distances(MIXED, members) == expected
    assert nearest_neighbor_distances(MIXED, members[:1]) == [float("inf")]


def test_pareto_front_dominance_cases():
    # (obj, nn): b dominates c (lower obj, higher distance)
    assert pareto_front([1.0, 2.0, 3.0], [0.9, 0.5, 0.1]) == [0]
    assert pareto_front([1.0, 2.0], [0.1, 0.5]) == [0, 1]


def test_ties_on_best_go_to_lowest_eval_id():
    members = [
        member(UNIT2, [0.2, 0.2], 1.0, eval_id=7),
        member(UNIT2, [0.8, 0.8], 1.0, eval_id=3),
    ]
    chosen = select_centers(UNIT2, members, 1, np.random.default_rng(0))
    assert chosen[0] is members[1]


# -- poll_points -------------------------------------------------------------------


def test_compass_polls_interior_center():
    m = member(UNIT2, [0.5, 0.5], 1.0, delta=0.1)
    polls = poll_points(UNIT2, m)
    got = [tuple(round(v, 12) for v in p.values) for p, _ in polls]
    assert got == [(0.6, 0.5), (0.4, 0.5), (0.5, 0.6), (0.5, 0.4)]
    assert all(key == canonical_key(UNIT2, p) for p, key in polls)


def test_poll_clipping_onto_center_is_dropped():
    m = member(UNIT2, [0.0, 0.5], 1.0, delta=0.1)
    polls = poll_points(UNIT2, m)
    assert len(polls) == 3  # minus direction on x clips onto the center
    assert all(is_valid(UNIT2, p) for p, _ in polls)


def test_integer_channel_poll_arithmetic():
    space = SearchSpace([IntegerVariable("k", 1, 31)])
    m = member(space, [16], 1.0, delta=0.1)
    polls = poll_points(space, m)
    assert sorted(p.values[0] for p, _ in polls) == [13, 19]


def test_categorical_channels_not_polled():
    m = member(MIXED, [0.5, 16, "b"], 1.0, delta=0.1)
    polls = poll_points(MIXED, m)
    assert all(p.values[2] == "b" for p, _ in polls)
    assert len(polls) == 4  # two numeric channels x two directions


# -- growth_update ---------------------------------------------------------------------


def test_growth_accepts_sufficient_decrease():
    m = member(UNIT2, [0.5, 0.5], 1.0, delta=0.1)
    poll = rec(UNIT2, Point([0.6, 0.5]), 0.99, eval_id=10)
    event = growth_update(m, [poll], alpha=1e-4)
    assert event.accepted
    assert m.rec is poll
    assert m.rec.objective == 0.99
    assert m.rec.point.values == (0.6, 0.5)
    assert m.delta == 0.1  # step kept on success


def test_growth_rejects_equal_value_and_halves():
    m = member(UNIT2, [0.5, 0.5], 1.0, delta=0.1)
    event = growth_update(m, [rec(UNIT2, Point([0.6, 0.5]), 1.0, 11)], alpha=1e-4)
    assert not event.accepted
    assert m.delta == 0.05
    assert m.rec.point.values == (0.5, 0.5)


def test_growth_boundary_is_strict():
    # threshold is 1.0 - 1e-4 * 0.1^2 = 0.999999; 0.9999995 is not below it
    m = member(UNIT2, [0.5, 0.5], 1.0, delta=0.1)
    event = growth_update(m, [rec(UNIT2, Point([0.6, 0.5]), 0.9999995, 12)], alpha=1e-4)
    assert not event.accepted
    assert m.delta == 0.05


def test_growth_empty_polls_is_failure():
    m = member(UNIT2, [0.5, 0.5], 1.0, delta=0.2)
    event = growth_update(m, [], alpha=1e-4)
    assert not event.accepted and m.delta == 0.1


# -- make_children ------------------------------------------------------------------------


def test_child_of_identical_parents_without_mutation_is_parent():
    cfg = HybridConfig(mutation_prob=0.0)
    m = member(MIXED, [0.5, 16, "b"], 1.0)
    children = make_children(MIXED, [m, m], 5, cfg, np.random.default_rng(0))
    assert all(c.values == m.rec.point.values and key == m.rec.key for c, key in children)


def test_children_are_valid_points():
    cfg = HybridConfig(mutation_prob=0.9, crossover_prob=0.9)
    rng = np.random.default_rng(2)
    members = [member(MIXED, [0.1, 3, "a"], 1.0), member(MIXED, [0.9, 29, "c"], 2.0)]
    for child, key in make_children(MIXED, members, 50, cfg, rng):
        assert is_valid(MIXED, child)
        assert key == canonical_key(MIXED, child)


def test_children_deterministic_per_seed():
    cfg = HybridConfig()
    members = [member(MIXED, [0.1, 3, "a"], 1.0), member(MIXED, [0.9, 29, "c"], 2.0)]
    a = make_children(MIXED, members, 10, cfg, np.random.default_rng(5))
    b = make_children(MIXED, members, 10, cfg, np.random.default_rng(5))
    assert a == b


# -- solver step behavior -----------------------------------------------------------------


def test_first_ask_is_lhs_of_population_size():
    solver = HybridSearch(BOX2, seed=1, config=HybridConfig(population=10))
    points = solver.ask(100)
    assert len(points) == 10
    xs = sorted(encode(BOX2, p)[0] for p in points)
    assert [int(x * 10) for x in xs] == list(range(10))  # stratified per variable


def test_first_ask_truncates_to_capacity():
    solver = HybridSearch(BOX2, seed=1, config=HybridConfig(population=10))
    assert len(solver.ask(4)) == 4


def test_members_start_with_delta_init():
    solver = HybridSearch(BOX2, seed=1)
    points = solver.ask(50)
    solver.tell([rec(BOX2, p, sphere(p), i + 1) for i, p in enumerate(points)])
    assert all(m.delta == solver.config.delta_init for m in solver.population)


def test_first_ask_deterministic_per_seed():
    a = HybridSearch(BOX2, seed=9).ask(50)
    b = HybridSearch(BOX2, seed=9).ask(50)
    assert a == b


def test_generation_ask_size_bound():
    cfg = HybridConfig(population=10, centers=2, elites=1)
    solver = HybridSearch(BOX2, seed=3, config=cfg)
    points = solver.ask(1000)
    solver.tell([rec(BOX2, p, sphere(p), i + 1) for i, p in enumerate(points)])
    gen_ask = solver.ask(1000)
    d = len(BOX2.numeric_indices)
    assert len(gen_ask) <= (cfg.population - cfg.elites) + cfg.centers * 2 * d


def test_best_objective_non_increasing_across_generations():
    manager = TuningManager(BOX2)
    manager.register_solver(HybridSearch(BOX2, seed=11))
    history = manager.run(sphere, Budget(200))
    bests = [b for _, b in history.best_by_iteration]
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))


def test_zeroed_operators_reduce_to_pure_lhs():
    cfg = HybridConfig(population=8, centers=0, crossover_prob=0.0, mutation_prob=0.0)
    solver = HybridSearch(BOX2, seed=13, config=cfg)
    manager = TuningManager(BOX2, max_stall_iterations=5)
    manager.register_solver(solver)
    history = manager.run(sphere, Budget(100))
    # only the initial LHS is ever evaluated; later asks are all duplicates
    assert history.evaluations == cfg.population
    init_points = {r.point.values for r in history.records if r.iteration == 1}
    assert {m.rec.point.values for m in solver.population} <= init_points


def test_foreign_adoption_hand_replay():
    solver = HybridSearch(UNIT2, seed=0, config=HybridConfig(population=3, centers=1))
    solver.population = [
        member(UNIT2, [0.1, 0.1], 1.0, eval_id=1),
        member(UNIT2, [0.2, 0.2], 2.0, eval_id=2),
        member(UNIT2, [0.3, 0.3], 3.0, eval_id=3),
    ]
    foreign = [
        rec(UNIT2, Point([0.4, 0.4]), 2.5, eval_id=101),  # replaces the 3.0 member
        rec(UNIT2, Point([0.5, 0.5]), 5.0, eval_id=102),  # beats nothing
        rec(UNIT2, Point([0.6, 0.6]), 0.5, eval_id=103),  # replaces the adopted 2.5
        rec(UNIT2, Point([0.1, 0.1]), 0.1, eval_id=104),  # already a member: skipped
    ]
    solver._adopt_foreign(foreign)
    assert sorted(m.rec.objective for m in solver.population) == [0.5, 1.0, 2.0]
    adopted = next(m for m in solver.population if m.rec.objective == 0.5)
    assert adopted.delta == solver.config.delta_init


def test_growth_log_zero_violations_on_sphere():
    space = SearchSpace([ContinuousVariable(f"x{i}", -5.0, 5.0) for i in range(3)])
    solver = HybridSearch(space, seed=21)
    manager = TuningManager(space)
    manager.register_solver(solver)
    manager.run(sphere, Budget(300))
    assert solver.growth_log, "growth steps should have run"
    for event in solver.growth_log:
        if event.accepted:
            assert event.f_best_poll < event.f_center - event.alpha * event.delta_before**2
            assert event.delta_after == event.delta_before
        else:
            assert event.delta_after == event.delta_before / 2


def test_delta_halves_once_per_failed_generation():
    # constant objective: no poll ever satisfies sufficient decrease, so the
    # persistent best member's step halves exactly once per generation it
    # serves as a center
    def constant(point: Point, eval_id: int) -> float:
        return 1.0

    solver = HybridSearch(BOX2, seed=6, config=HybridConfig(population=6, centers=1))
    manager = TuningManager(BOX2, max_stall_iterations=3)
    manager.register_solver(solver)
    manager.run(constant, Budget(120))
    rejections = [e for e in solver.growth_log if not e.accepted]
    assert rejections and not any(e.accepted for e in solver.growth_log)
    # ties on objective resolve to the lowest eval_id, so the single center is
    # the same member every generation and its step halved once per generation
    anchor = min(solver.population, key=Member.rank_key)
    assert anchor.rec.eval_id == 1
    assert anchor.delta == pytest.approx(solver.config.delta_init / 2 ** len(rejections))


def test_sphere_convergence_across_seeds():
    hits = 0
    for seed in range(10):
        manager = TuningManager(BOX2)
        manager.register_solver(HybridSearch(BOX2, seed=seed))
        history = manager.run(sphere, Budget(500))
        if history.best_record().objective <= 1e-3:
            hits += 1
    assert hits >= 8
