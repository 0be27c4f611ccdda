"""DIRECT rectangle machinery, Nelder-Mead simplex behavior, and the hybrid."""

from __future__ import annotations

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ListSimplexSearch, reference_nm_minimize
from tunekit.cache import canonical_key
from tunekit.manager import TuningManager
from tunekit.solvers.direct import (
    ACTIVE,
    REFINING,
    RETIRED,
    DirectSearch,
    longest_axis,
    pareto_select,
    split_box,
)
from tunekit.solvers.neldermead import NelderMeadSolver, SimplexSearch, _centroid, _clipped, nm_minimize_many
from tunekit.space import CategoricalVariable, ContinuousVariable, Point, SearchSpace, encode
from tunekit.trials import Budget, TrialRecord


def unit_space(d: int) -> SearchSpace:
    return SearchSpace([ContinuousVariable(f"x{i}", 0.0, 1.0) for i in range(d)])


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


# -- pareto selection -------------------------------------------------------------


def brute_force_pareto(entries: list[tuple[float, float]]) -> list[int]:
    kept = []
    for i, (d, v) in enumerate(entries):
        dominated = any(
            dj >= d and vj <= v and (dj > d or vj < v)
            for j, (dj, vj) in enumerate(entries)
            if j != i
        )
        duplicate = any(entries[j] == (d, v) for j in range(i))
        if not dominated and not duplicate:
            kept.append(i)
    return kept


def test_single_rect_selected():
    assert pareto_select([(1.0, 5.0)]) == [0]


def test_equal_diameter_keeps_lower_value():
    assert pareto_select([(1.0, 3.0), (1.0, 5.0)]) == [0]
    assert pareto_select([(1.0, 5.0), (1.0, 3.0)]) == [1]


def test_three_rect_dominance_example():
    # (diameter, value): (1,5) is dominated by (2,3); the others survive
    assert pareto_select([(1.0, 5.0), (2.0, 3.0), (3.0, 4.0)]) == [1, 2]


def test_exact_ties_keep_lowest_index():
    assert pareto_select([(1.0, 3.0), (1.0, 3.0)]) == [0]


def test_empty_input():
    assert pareto_select([]) == []


def test_pareto_matches_brute_force_on_random_rects():
    rng = np.random.default_rng(123)
    for _ in range(30):
        n = int(rng.integers(1, 101))
        entries = [
            (float(rng.integers(1, 8)) / 8.0, float(rng.integers(0, 10)))
            for _ in range(n)
        ]
        assert pareto_select(entries) == brute_force_pareto(entries)


# -- trisection ---------------------------------------------------------------------


def test_unit_interval_trisection():
    children = split_box((0.5,), (0.5,), axis=0)
    centers = [c[0] for c, _ in children]
    widths = [h[0] for _, h in children]
    assert centers == pytest.approx([1 / 6, 1 / 2, 5 / 6])
    assert widths == pytest.approx([1 / 6, 1 / 6, 1 / 6])


def test_longest_axis_rule():
    assert longest_axis((0.5, 1 / 6)) == 0
    assert longest_axis((1 / 6, 0.5)) == 1
    assert longest_axis((0.5, 0.5)) == 0  # tie goes to the lowest channel


def test_middle_child_costs_no_evaluation():
    space = unit_space(1)
    solver = DirectSearch(space)
    root_pts = solver.ask(10)
    assert len(root_pts) == 1 and root_pts[0].values == (0.5,)
    solver.tell([rec(space, root_pts[0], 7.0, 1)])
    wave = solver.ask(10)
    assert len(wave) == 2  # only the two outer children need values
    solver.tell([rec(space, p, float(i), 2 + i) for i, p in enumerate(wave)])
    rects = solver.rects
    assert [r.state for r in rects] == [RETIRED, ACTIVE, ACTIVE, ACTIVE]
    mid = rects[2]
    assert mid.center == (0.5,) and mid.f_center == 7.0


def test_split_whose_outer_centers_share_a_key_takes_one_record():
    # on a 2-level categorical, the low child [0, 1/3] splits into outer
    # centers 1/18 and 5/18, and both snap to level "a"
    space = SearchSpace([CategoricalVariable("c", ("a", "b"))])
    value = {"a": 0.0, "b": 1.0}
    solver = DirectSearch(space)
    (root,) = solver.ask(10)
    solver.tell([rec(space, root, value[root.values[0]], 1)])
    first = solver.ask(10)
    assert [p.values for p in first] == [("a",), ("b",)]
    solver.tell([rec(space, p, value[p.values[0]], 2 + i) for i, p in enumerate(first)])
    second = solver.ask(10)
    assert [p.values for p in second] == [("a",), ("a",)]
    solver.tell([rec(space, second[0], 0.0, 4)])
    rects = solver.rects
    assert [r.state for r in rects] == [RETIRED, RETIRED] + [ACTIVE] * 5
    assert [r.center[0] for r in rects[4:]] == pytest.approx([1 / 18, 3 / 18, 5 / 18])
    assert [r.f_center for r in rects[4:]] == [0.0, 0.0, 0.0]
    # nothing is left waiting, so the next ask plans a new wave
    assert len(solver.ask(10)) == 4


def test_tiling_exact_with_rationals():
    # split repeatedly with exact rational arithmetic: volumes must sum to 1
    # and interiors must stay disjoint
    for dims in (1, 2):
        boxes = [((Fraction(1, 2),) * dims, (Fraction(1, 2),) * dims)]
        for step in range(60):
            idx = step % len(boxes)
            center, half = boxes.pop(idx)
            boxes.extend(split_box(center, half, longest_axis(half)))
        volume = sum(math.prod(2 * h for h in hw) for _, hw in boxes)
        assert volume == 1
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                (ci, hi), (cj, hj) = boxes[i], boxes[j]
                separated = any(abs(a - b) >= ha + hb for a, b, ha, hb in zip(ci, cj, hi, hj))
                assert separated, f"boxes {i} and {j} overlap"


# -- simplex state machine --------------------------------------------------------------


def test_nm_collision_triggers_inside_contraction():
    # vertices (0,0)=0, (1,0)=1, (1,1)=2 on x^2+y^2: the reflection clips onto
    # an existing vertex, so the step becomes an inside contraction at
    # (0.75, 0.5) with value 0.8125
    search = SimplexSearch(vertices=[np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 1.0])])
    first = search.pending()
    assert len(first) == 3
    search.advance([float(x @ x) for x in first])
    second = search.pending()
    assert len(second) == 1
    assert second[0] == pytest.approx([0.75, 0.5])
    value = float(second[0] @ second[0])
    assert value == pytest.approx(0.8125)
    search.advance([value])
    assert search.best_f == 0.0  # original best vertex still best


def test_nm_monotone_descent_on_linear():
    def linear(x: np.ndarray) -> float:
        return float(x[0] + 2 * x[1])

    search = SimplexSearch(np.array([0.6, 0.6]), edge=0.1)
    search.advance([linear(x) for x in search.pending()])
    bests = []
    for _ in range(5):
        search.advance([linear(x) for x in search.pending()])
        bests.append(search.best_f)
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
    assert bests[-1] < bests[0]


def test_nm_converges_on_shifted_sphere():
    target = np.array([0.5, 0.5])

    def fn_rows(rows: np.ndarray) -> list[float]:
        return [float(np.sum((x - target) ** 2)) for x in rows]

    search = SimplexSearch(np.array([0.2, 0.8]), edge=0.1)
    nm_minimize_many(fn_rows, [search], max_iters=200)
    assert search.best_f <= 1e-6
    assert search.iterations <= 200


def test_nm_quadratic_convergence_across_seeds():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = rng.uniform(0.5, 3.0, d)
        a = q @ np.diag(eigs) @ q.T
        target = rng.uniform(0.2, 0.8, d)

        def fn_rows(rows: np.ndarray) -> list[float]:
            return [float(delta @ a @ delta) for delta in rows - target]

        search = SimplexSearch(np.full(d, 0.5), edge=0.2)
        nm_minimize_many(fn_rows, [search], max_iters=500)
        if search.best_f <= 1e-6 and search.iterations <= 500:
            hits += 1
    assert hits == 10


def test_nm_minimize_many_matches_each_start_run_alone():
    rng = np.random.default_rng(4)
    targets = rng.uniform(0.2, 0.8, (4, 3))
    starts = rng.uniform(0.0, 1.0, (4, 3))

    def value(owner: int, x: np.ndarray) -> float:
        if owner == 3:
            return 1.0  # flat: its simplex stops after the first iteration
        return float(np.sum((x - targets[owner]) ** 2) * (owner + 1))

    for max_iters in (0, 1, 7, 60):
        calls: list[int] = []

        def fn_rows(rows: np.ndarray) -> list[float]:
            calls.append(len(rows))
            return [value(int(row[-1]), row[:-1]) for row in rows]

        # each search's frozen last channel holds its owner's index
        searches = [
            SimplexSearch(np.append(x0, owner), edge=0.1, channels=range(3)) for owner, x0 in enumerate(starts)
        ]
        nm_minimize_many(fn_rows, searches, max_iters=max_iters)
        steps = []
        for owner, search in enumerate(searches):
            want_x, want_f, want_iters, n_steps = reference_nm_minimize(
                lambda x: value(owner, x), starts[owner], 0.1, max_iters
            )
            steps.append(n_steps)
            x = search.best_x
            assert (x is None and want_x is None) or (np.array_equal(x[:-1], want_x) and x[-1] == owner)
            assert (search.best_f, search.iterations) == (want_f, want_iters)
        assert len(calls) == max(steps)


def test_degenerate_simplex_reinitializes():
    # duplicate vertices force an immediate rebuild around the best vertex
    search = SimplexSearch(
        vertices=[np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([0.6, 0.5])]
    )
    search.advance([1.0, 1.0, 2.0])
    rebuild = search.pending()
    assert len(rebuild) == 2  # fresh offset vertices around the best


def _linear(x: np.ndarray) -> float:
    return float(x[0] - 2 * x[1])


def _sphere(x: np.ndarray) -> float:
    return float(np.sum((x - 0.3) ** 2))


def _rugged(x: np.ndarray) -> float:
    return float(np.sum(np.sin(23 * x + 1.3)))


@pytest.mark.parametrize(
    "fn, start, steps, events",
    [
        # the minimum is the corner (0, 1): reflections clip onto a wall vertex
        (_linear, {"x0": np.array([0.05, 0.95]), "edge": 0.1}, 60, {"collision", "reinit"}),
        (_sphere, {"x0": np.array([0.5, 0.5]), "edge": 0.1}, 200, {"collision", "shrink"}),
        (_sphere, {"vertices": [[0.5, 0.5], [0.5, 0.5], [0.6, 0.5]]}, 50, {"reinit"}),
        (_rugged, {"x0": np.array([0.5, 0.5, 0.5]), "edge": 0.3}, 200, {"shrink"}),
        # edges so short that the scale's square underflows to 0.0
        (_sphere, {"vertices": [[0.0, 0.0], [0.0, 0.0], [0.0, 2.2250738585072014e-309]]}, 30, {"reinit"}),
        (_sphere, {"vertices": [[0.0, 0.0], [1e-200, 0.0], [0.0, 1e-200]]}, 30, {"collision", "shrink"}),
    ],
    ids=["wall-collision", "shrink", "degenerate", "rugged-3d", "subnormal-edge", "tiny-simplex"],
)
def test_simplex_steps_match_the_list_based_oracle(fn, start, steps, events):
    search, reference = SimplexSearch(**start), ListSimplexSearch(**start)
    for _ in range(steps):
        assert np.array_equal(search.pending(), reference.pending())
        values = [fn(x) for x in reference.pending()]
        search.advance(values)
        reference.advance(values)
        assert np.array_equal(search.best_x, reference.best_x)
        assert (search.best_f, search.iterations) == (reference.best_f, reference.iterations)
        assert search.value_spread() == reference.value_spread()
    assert events <= set(reference.events)


def _bits(x) -> bytes | None:
    """The bytes of x as a float array, every NaN as one NaN: a NaN's sign
    and payload depend on which instruction made it."""
    if x is None:
        return None
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), math.nan, x).tobytes()


_UNIT = st.floats(0.0, 1.0)
# ties, both infinities and NaN among ordinary values
_VALUE = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, math.inf, -math.inf, math.nan]), st.floats(-10.0, 10.0, allow_nan=False)
)


@st.composite
def _simplex_start(draw):
    d = draw(st.integers(1, 8))
    if draw(st.booleans()):
        # now and then a start off the cube: NaN and infinite coordinates
        coord = st.one_of(_UNIT, _UNIT, _UNIT, st.sampled_from([math.nan, math.inf, -math.inf]))
        return {"x0": np.array(draw(st.lists(coord, min_size=d, max_size=d))), "edge": draw(st.floats(0.01, 1.0))}
    # explicit vertices from a coarse grid, so duplicates and collisions occur
    coord = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), _UNIT)
    vertices = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=d + 1, max_size=d + 1))
    for i, j in draw(st.lists(st.tuples(st.integers(0, d), st.integers(0, d)), max_size=2)):
        vertices[i] = vertices[j]
    return {"vertices": [np.array(v) for v in vertices]}


_SPECIAL = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-0.0, 0.0, 1.0, math.nan, math.inf, -math.inf]))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda d: st.lists(st.lists(_SPECIAL, min_size=d, max_size=d), min_size=1, max_size=9)
    )
)
@example(rows=[[0.0], [0.0], [0.0], [1.0], [-1.0], [-1.5985013874526055], [0.0], [0.0]])  # one column, summed pairwise
def test_clip_and_centroid_repeat_the_numpy_expressions(rows):
    # np.maximum(-0.0, 0.0) is 0.0, and np.add.reduce starts each sum from
    # 0.0, so a column of -0.0 sums to 0.0
    array = np.array(rows)
    with np.errstate(invalid="ignore"):
        assert _bits(_centroid(rows)) == _bits(np.add.reduce(array, axis=0) / len(rows))
    for row, want in zip(rows, np.minimum(np.maximum(array, 0.0), 1.0)):
        assert _bits(_clipped(row)) == _bits(want)


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# values a frozen channel must keep bit for bit: both zeros, NaNs of either
# sign, with a payload and signalling, and both infinities
_FROZEN = st.one_of(
    st.sampled_from(
        [-0.0, 0.0, math.nan, -math.nan, _float_of_bits(0x7FF8000000000001), _float_of_bits(0x7FF0000000000001)]
        + [math.inf, -math.inf]
    ),
    st.floats(allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(_simplex_start(), st.sampled_from(["draws", "constant", "bowl"]), st.data())
def test_simplex_steps_match_the_list_based_oracle_on_random_draws(start, mode, data):
    # the search moves a drawn subset of a wider row's channels, in a drawn
    # order; the oracle runs on those coordinates alone
    reference = ListSimplexSearch(**start)
    d = len(reference.pending()[0])
    frozen_values = data.draw(st.lists(_FROZEN, max_size=4))
    width = d + len(frozen_values)
    channels = data.draw(st.permutations(range(width)))[:d]
    frozen = [c for c in range(width) if c not in channels]
    row = np.full(width, 0.5)
    row[frozen] = frozen_values
    if "x0" in start:
        row[channels] = start["x0"]
        search = SimplexSearch(row, edge=start["edge"], channels=channels)
    else:
        search = SimplexSearch(row, vertices=start["vertices"], channels=channels)
    frozen_bits = row[frozen].tobytes()
    target = np.full(d, 0.3)
    for _ in range(data.draw(st.integers(1, 40))):
        pending = search.pending()
        assert pending.shape == (len(reference.pending()), width)
        assert _bits(pending[:, channels]) == _bits(reference.pending())
        assert all(r[frozen].tobytes() == frozen_bits for r in pending)
        if mode == "draws":
            values = data.draw(st.lists(_VALUE, min_size=len(pending), max_size=len(pending)))
        elif mode == "constant":
            values = [3.0] * len(pending)
        else:  # a bowl with rounded values, so it converges through ties
            values = [round(float(np.sum((x - target) ** 2)), 3) for x in pending[:, channels]]
        with np.errstate(invalid="ignore"):  # numpy's arithmetic on infinite starts
            search.advance(values)
            reference.advance(values)
        best_x = search.best_x
        assert (best_x is None) == (reference.best_x is None)
        if best_x is not None:
            assert _bits(best_x[channels]) == _bits(reference.best_x)
            assert best_x[frozen].tobytes() == frozen_bits
        assert _bits(search.best_f) == _bits(reference.best_f)
        assert search.iterations == reference.iterations
        assert _bits(search.value_spread()) == _bits(reference.value_spread())


@pytest.mark.parametrize(
    "start",
    [
        {"vertices": [[0.0, 0.0], [1.0, 0.0]]},  # too few
        {"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},  # too many
        {"vertices": [[0.0, 0.0], [1.0], [0.0, 1.0]]},  # a short vertex
        {"x0": [0.5, 0.5, 0.5], "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "channels": [1]},
    ],
    ids=["too-few", "too-many", "ragged", "wider-than-channels"],
)
def test_simplex_that_is_not_d_plus_one_vertices_of_d_coordinates_is_refused(start):
    with pytest.raises(ValueError):
        SimplexSearch(**start)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda d: st.lists(st.lists(_UNIT, min_size=d, max_size=d), min_size=1, max_size=5)
    ),
    st.integers(0, 60),
    st.integers(0, 2**32 - 1),
)
def test_nm_minimize_many_stacks_match_each_start_run_alone(starts, max_iters, seed):
    starts = np.array(starts)
    targets = np.random.default_rng(seed).uniform(0.0, 1.0, starts.shape)

    def value(owner: int, x: np.ndarray) -> float:
        if owner % 3 == 2:
            return 1.0  # flat: its simplex stops after the first iteration
        f = round(float(np.sum((x - targets[owner]) ** 2)), 2 + owner)
        return math.inf if x[0] > 0.95 else f

    calls: list[int] = []

    def fn_rows(rows: np.ndarray) -> list[float]:
        calls.append(len(rows))
        return [value(int(row[-1]), row[:-1]) for row in rows]

    # each search's frozen last channel holds its owner's index
    d = starts.shape[1]
    searches = [
        SimplexSearch(np.append(x0, owner), edge=0.1, channels=range(d)) for owner, x0 in enumerate(starts)
    ]
    nm_minimize_many(fn_rows, searches, max_iters=max_iters)
    steps = []
    for owner, search in enumerate(searches):
        want_x, want_f, want_iters, n_steps = reference_nm_minimize(
            lambda x: value(owner, x), starts[owner], 0.1, max_iters
        )
        steps.append(n_steps)
        x = search.best_x
        assert _bits(None if x is None else x[:-1]) == _bits(want_x)
        assert x is None or x[-1] == owner
        assert (_bits(search.best_f), search.iterations) == (_bits(want_f), want_iters)
    assert len(calls) == max(steps)


# -- solvers through the manager -----------------------------------------------------------


def shifted_sphere(target: np.ndarray):
    def objective(p: Point, eval_id: int) -> float:
        x = np.array([float(v) for v in p.values])
        return float(np.sum((x - target) ** 2))

    return objective


def test_direct_finds_shifted_sphere_minimum():
    for d in (1, 2, 3):
        for seed in range(10):
            rng = np.random.default_rng(seed + 100 * d)
            target = rng.uniform(0.0, 1.0, d)
            space = unit_space(d)
            manager = TuningManager(space)
            manager.register_solver(DirectSearch(space))
            history = manager.run(shifted_sphere(target), Budget(200))
            assert history.best_record().objective <= 1e-2, (d, seed)


def test_neldermead_solver_runs_under_manager():
    space = unit_space(2)
    manager = TuningManager(space)
    manager.register_solver(NelderMeadSolver(space, seed=4))
    history = manager.run(shifted_sphere(np.array([0.4, 0.6])), Budget(120))
    assert history.best_record().objective <= 1e-3


def test_neldermead_advances_after_the_last_vertex_record_at_one_point_per_ask():
    space = unit_space(2)
    solver = NelderMeadSolver(space, seed=4)
    vertices = []
    for i in range(3):  # the initial simplex, one vertex per ask
        assert solver._search.iterations == 0
        (p,) = solver.ask(1)
        vertices.append(p)
        solver.tell([rec(space, p, float(i), 1 + i)])
    assert len(set(vertices)) == 3
    assert solver._search.iterations == 1
    (reflected,) = solver.ask(1)
    assert reflected not in vertices


def test_neldermead_does_not_fill_an_unserved_vertex_from_a_foreign_record():
    space = unit_space(2)
    vertices = NelderMeadSolver(space, seed=4).ask(3)
    solver = NelderMeadSolver(space, seed=4)
    assert solver.ask(1) == vertices[:1]
    # another solver's record for the next vertex arrives before it is served
    solver.tell([rec(space, vertices[0], 0.0, 1), rec(space, vertices[1], 1.0, 2)])
    assert solver.ask(1) == vertices[1:2]  # served anyway, answered from the cache
    solver.tell([rec(space, vertices[1], 1.0, 2)])
    assert solver.ask(1) == vertices[2:]
    solver.tell([rec(space, vertices[2], 2.0, 3)])
    assert solver._search.iterations == 1


def test_theta_zero_never_refines():
    space = unit_space(2)
    solver = DirectSearch(space, theta=0.0)
    manager = TuningManager(space)
    manager.register_solver(solver)
    manager.run(shifted_sphere(np.array([0.3, 0.7])), Budget(100))
    assert all(r.state != REFINING for r in solver.rects)


def test_theta_above_diagonal_degenerates_to_single_nm():
    space = unit_space(2)
    solver = DirectSearch(space, theta=math.sqrt(2))
    manager = TuningManager(space)
    manager.register_solver(solver)
    history = manager.run(shifted_sphere(np.array([0.3, 0.7])), Budget(80))
    assert len(solver.rects) == 1
    assert solver.rects[0].state == REFINING
    assert history.best_record().objective <= 1e-3


def test_direct_progresses_under_capacity_starvation():
    # a greedy neighbor leaves DIRECT only slivers of each batch; queued
    # requests must survive across iterations until their records arrive
    from tunekit.solvers.samplers import RandomSearch

    space = unit_space(2)
    direct = DirectSearch(space)
    manager = TuningManager(space)
    manager.register_solver(RandomSearch(space, seed=1, batch=9), share_in=False)
    manager.register_solver(direct, share_in=False)
    history = manager.run(shifted_sphere(np.array([0.4, 0.4])), Budget(80))
    assert len(history.records) == 80
    assert len(direct.rects) > 4  # root was split at least once despite starvation
    assert all(r.f_center is not None for r in direct.rects if r.state == RETIRED)


class SplitSpy(DirectSearch):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.split_states: list[str] = []

    def _plan_split(self, rect) -> None:
        self.split_states.append(rect.state)
        super()._plan_split(rect)


def test_refining_rect_never_trisected():
    space = unit_space(2)
    solver = SplitSpy(space, theta=0.4)
    manager = TuningManager(space)
    manager.register_solver(solver)
    manager.run(shifted_sphere(np.array([0.25, 0.5])), Budget(150))
    assert any(r.state == REFINING for r in solver.rects), "theta should trigger refinement"
    assert all(state == ACTIVE for state in solver.split_states)
    # refinement tracks the best value it has seen
    for r in solver.rects:
        if r.state == REFINING:
            assert r.best_value <= r.f_center
