"""Manager loop contracts: budget, determinism, sharing, isolation, failure
tolerance, and the run summary."""

from __future__ import annotations

import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import tunekit.manager as manager_module
import tunekit.space as space_module
from helpers import RecordingSolver, ScriptedSolver, assert_convergence_matches_rescan, counted
from tunekit.cache import canonical_key
from tunekit.cli import _run_once
from tunekit.config import instantiate_solvers, load_run_config
from tunekit.manager import Solver, TuningManager
from tunekit.objectives import BuiltinObjective, build_objective
from tunekit.solvers import HybridConfig, HybridSearch, RandomSearch
from tunekit.space import CategoricalVariable, ContinuousVariable, IntegerVariable, Point, SearchSpace, encode
from tunekit.trials import PENALTY_OBJECTIVE, Budget, TuningHistory

SPACE2 = SearchSpace([ContinuousVariable("x", -5.0, 5.0), ContinuousVariable("y", -5.0, 5.0)])


def sphere_objective(point: Point, eval_id: int) -> float:
    return sum(float(v) ** 2 for v in point.values)


class ThrowingSolver(Solver):
    def ask(self, max_points: int) -> list[Point]:
        raise RuntimeError("boom")

    def tell(self, records) -> None:
        pass


class IsDoneRaisingSolver(ScriptedSolver):
    def is_done(self) -> bool:
        raise RuntimeError("boom")


class TellRaisingSolver(ScriptedSolver):
    def tell(self, records) -> None:
        super().tell(records)
        raise RuntimeError("boom")


# -- registration ---------------------------------------------------------------


def test_run_without_solvers_errors():
    manager = TuningManager(SPACE2)
    with pytest.raises(RuntimeError):
        manager.run(sphere_objective, Budget(10))


def test_registration_after_start_errors():
    manager = TuningManager(SPACE2)
    manager.register_solver(RandomSearch(SPACE2, seed=1))
    manager.run(sphere_objective, Budget(5))
    with pytest.raises(RuntimeError):
        manager.register_solver(RandomSearch(SPACE2, seed=2))


# -- budget -----------------------------------------------------------------------


def test_budget_exactly_consumed_by_random_search():
    manager = TuningManager(SPACE2)
    manager.register_solver(RandomSearch(SPACE2, seed=3))
    objective = counted(sphere_objective)
    history = manager.run(objective, Budget(50))
    assert len(history.records) == 50
    assert len(objective.calls) == 50


def test_budget_never_exceeded_with_concurrency():
    for k in (1, 4):
        manager = TuningManager(SPACE2)
        manager.register_solver(RandomSearch(SPACE2, seed=3))
        objective = counted(sphere_objective)
        manager.run(objective, Budget(37, max_concurrency=k))
        assert len(objective.calls) <= 37


def test_solver_finishing_early_ends_run():
    manager = TuningManager(SPACE2)
    manager.register_solver(RandomSearch(SPACE2, seed=1, n=12))
    history = manager.run(sphere_objective, Budget(100))
    assert len(history.records) == 12


# -- cache interplay ---------------------------------------------------------------


def test_duplicate_ask_replayed_not_reevaluated():
    p = Point([1.0, 2.0])
    solver = ScriptedSolver([[p], [p]])
    manager = TuningManager(SPACE2)
    manager.register_solver(solver)
    objective = counted(sphere_objective)
    history = manager.run(objective, Budget(10))
    assert len(objective.calls) == 1
    assert len(history.records) == 1
    assert history.cache_hits == 1
    # the duplicate ask still appears in the second tell, as a replay
    assert len(solver.told) == 2
    assert solver.told[0].eval_id == solver.told[1].eval_id


def test_within_batch_duplicates_single_evaluation():
    p = Point([0.5, 0.5])
    solver = ScriptedSolver([[p, p, p]])
    manager = TuningManager(SPACE2)
    manager.register_solver(solver)
    objective = counted(sphere_objective)
    history = manager.run(objective, Budget(10))
    assert len(objective.calls) == 1
    assert history.points_asked == 3
    assert history.cache_hits == 2


# -- failures ------------------------------------------------------------------------


def test_objective_failures_become_penalty_records():
    objective = BuiltinObjective(
        "cliff", SPACE2, {"base": "sphere", "fail_var": 0, "fail_above": 0.9 * 5.0}, seed=0
    )
    manager = TuningManager(SPACE2)
    manager.register_solver(RandomSearch(SPACE2, seed=8))
    history = manager.run(lambda p, e: objective(p, e), Budget(60))
    assert len(history.records) == 60
    fails = [r for r in history.records if not r.ok]
    assert fails, "the failing region should have been hit"
    assert all(r.objective == PENALTY_OBJECTIVE for r in fails)
    assert all(r.fail_reason == "hidden_constraint" for r in fails)


@pytest.mark.parametrize(
    "make_bad, bad_records",
    [
        (ThrowingSolver, 0),
        (lambda: ScriptedSolver([[Point([0.1])]]), 0),  # wrong arity
        (lambda: ScriptedSolver([[Point([9.0, 0.0])]]), 0),  # out of bounds
        (lambda: IsDoneRaisingSolver([[Point([0.1, 0.2])]]), 0),  # isolated before it asks
        (lambda: TellRaisingSolver([[Point([0.1, 0.2])], [Point([0.3, 0.4])]]), 1),  # never asked again
    ],
    ids=["ask-raises", "wrong-arity", "out-of-bounds", "is_done-raises", "tell-raises"],
)
def test_throwing_solver_is_isolated_not_fatal(make_bad, bad_records):
    manager = TuningManager(SPACE2)
    bad = manager.register_solver(make_bad())
    survivor = manager.register_solver(RandomSearch(SPACE2, seed=5))
    objective = counted(sphere_objective)
    history = manager.run(objective, Budget(30))
    assert len(history.records) == 30  # survivor consumed the rest of the budget
    assert [r.iteration for r in history.records if r.solver_id == bad] == [1] * bad_records
    assert {r.solver_id for r in history.records} - {bad} == {survivor}


# -- determinism -----------------------------------------------------------------------


def _run_hybrid(k: int, seed: int = 17) -> TuningHistory:
    manager = TuningManager(SPACE2)
    manager.register_solver(HybridSearch(SPACE2, seed=seed, config=HybridConfig()))
    return manager.run(sphere_objective, Budget(80, max_concurrency=k), seed=seed)


def test_concurrency_level_does_not_change_results():
    h1, h8 = _run_hybrid(1), _run_hybrid(8)
    points1 = {r.point.values for r in h1.records}
    points8 = {r.point.values for r in h8.records}
    assert points1 == points8
    assert h1.best_record().objective == h8.best_record().objective


def test_noisy_objective_still_deterministic_per_seed():
    # noise is seeded per (run seed, eval_id), so even a noisy objective
    # reproduces bit-identically across runs and concurrency levels
    def run(k: int):
        objective = BuiltinObjective("noisy", SPACE2, {"base": "sphere", "sigma": 0.3}, seed=5)
        manager = TuningManager(SPACE2)
        manager.register_solver(HybridSearch(SPACE2, seed=5))
        history = manager.run(lambda p, e: objective(p, e), Budget(60, max_concurrency=k))
        return [(r.eval_id, r.point.values, r.objective) for r in history.records]

    assert run(1) == run(8)


# -- sharing ----------------------------------------------------------------------------


def test_sharing_delivers_every_foreign_record():
    hybrid = RecordingSolver(HybridSearch(SPACE2, seed=2))
    rand = RecordingSolver(RandomSearch(SPACE2, seed=9, batch=5))
    manager = TuningManager(SPACE2)
    manager.register_solver(hybrid, share_in=True)
    manager.register_solver(rand, share_in=True)
    history = manager.run(sphere_objective, Budget(60))
    all_ids = {r.eval_id for r in history.records}
    hybrid_told = {r.eval_id for r in hybrid.told}
    rand_told = {r.eval_id for r in rand.told}
    assert len({r.solver_id for r in history.records}) == 2, "both solvers should evaluate"
    # with sharing on, each solver's cumulative tell stream covers everything
    assert all_ids <= hybrid_told
    assert all_ids <= rand_told


def test_share_in_false_blocks_foreign_records():
    sink = ScriptedSolver([[Point([1.0, 1.0])]] * 3)
    quiet = RecordingSolver(sink)
    manager = TuningManager(SPACE2)
    manager.register_solver(quiet, share_in=False)
    manager.register_solver(RandomSearch(SPACE2, seed=4, batch=4), share_in=False)
    manager.run(sphere_objective, Budget(20))
    assert {r.point.values for r in quiet.told} == {(1.0, 1.0)}


class ContractSolver(ScriptedSolver):
    """A scripted solver that logs each ask and, with the number of asks made
    so far (the iteration, since a live solver is asked once per iteration),
    each tell."""

    def __init__(self, batches):
        super().__init__(batches)
        self.asks: list[list[Point]] = []
        self.tells: list[tuple[int, list]] = []

    def ask(self, max_points: int) -> list[Point]:
        points = super().ask(max_points)
        self.asks.append(points)
        return points

    def tell(self, records) -> None:
        self.tells.append((len(self.asks), list(records)))


def test_tell_holds_own_records_plus_shared_ones_once_in_eval_id_order():
    p1, p2, p3, p4, p5, p6 = (Point([v, v]) for v in (1.0, 2.0, 3.0, -1.0, -2.0, 0.5))
    sharer = ContractSolver([[p1, p1, p2], [p1, p3], [], [p6]])  # within-batch duplicate, replays
    loner = ContractSolver([[p2, p4], [p4, p5], [p6]])  # shares nothing
    isolated = ContractSolver([[Point([9.0, 0.0])], [p3]])  # out of bounds: isolated at its first ask
    second_loner = ContractSolver([[p5], [p2]])
    manager = TuningManager(SPACE2)
    manager.register_solver(sharer, share_in=True)
    manager.register_solver(loner, share_in=False)
    manager.register_solver(isolated, share_in=True)
    manager.register_solver(second_loner, share_in=False)
    objective = counted(sphere_objective)
    history = manager.run(objective, Budget(100))

    assert len(objective.calls) == len(history.records) == 6
    assert history.cache_hits == history.points_asked - 6 > 0
    by_key = {rec.key: rec for rec in history.records}
    keys = {
        solver: [[canonical_key(SPACE2, p) for p in points] for points in solver.asks]
        for solver in (sharer, loner, second_loner)
    }
    assert isolated.asks == [[Point([9.0, 0.0])]] and isolated.tells == []
    for solver, shares in ((sharer, True), (loner, False), (second_loner, False)):
        expected = []
        for iteration, own in enumerate(keys[solver], 1):
            batch = {k for asked in keys.values() if len(asked) >= iteration for k in asked[iteration - 1]}
            told = sorted((by_key[k] for k in (batch if shares else set(own))), key=lambda r: r.eval_id)
            if told:
                expected.append((iteration, told))
        assert solver.tells == expected
        for _, records in solver.tells:
            ids = [r.eval_id for r in records]
            assert ids == sorted(set(ids))  # each record once, in eval_id order


def test_records_carry_their_read_only_encoded_row():
    space = SearchSpace(
        [ContinuousVariable("x", -1.0, 3.0), IntegerVariable("k", 0, 9), CategoricalVariable("c", ("a", "b"))]
    )
    manager = TuningManager(space)
    manager.register_solver(HybridSearch(space, seed=4))
    history = manager.run(lambda p, e: float(p.values[0]) ** 2, Budget(40, max_concurrency=2))
    for rec in history.records:
        assert np.array_equal(rec.encoded, encode(space, rec.point))
        assert rec.key == canonical_key(space, rec.point)
        with pytest.raises(ValueError):
            rec.encoded[0] = 0.5


def test_portfolio_validates_each_asked_point_once(monkeypatch):
    # the manager checks what solvers hand in; solvers key the points they
    # build from their own encoded rows and validate nothing again
    calls = []
    original = space_module.validate_point

    def counting(space, p):
        calls.append(p)
        return original(space, p)

    for name, module in list(sys.modules.items()):
        if name.startswith("tunekit") and getattr(module, "validate_point", None) is original:
            monkeypatch.setattr(module, "validate_point", counting)
    config = load_run_config(Path(__file__).parent / "golden" / "portfolio.json")
    objective = build_objective(config.objective_spec, config.space, config.seed)
    history = _run_once(config, config.seed, objective, instantiate_solvers(config, config.seed))
    assert history.evaluations == config.budget.max_evaluations
    assert len(calls) == history.points_asked


# -- evaluation phase ----------------------------------------------------------------------


def distinct_batches(sizes: list[int]) -> list[list[Point]]:
    """Batches of the given sizes, no point repeated across or within them."""
    values = iter(np.linspace(-4.9, 4.9, sum(sizes)))
    return [[Point([float(v), 0.0]) for v in [next(values) for _ in range(n)]] for n in sizes]


class ConcurrencyProbe:
    """An objective that logs the threads it runs on and the most calls that
    ever ran at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self._running = 0
        self.peak = 0
        self.threads: set[int] = set()

    def __call__(self, point: Point, eval_id: int) -> float:
        with self._lock:
            self._running += 1
            self.peak = max(self.peak, self._running)
            self.threads.add(threading.get_ident())
        time.sleep(0.001)
        with self._lock:
            self._running -= 1
        return sphere_objective(point, eval_id)


@pytest.mark.parametrize("k", [2, 4])
def test_k_evaluations_run_at_once(k):
    # each evaluation waits until k of them are running; a pool that ran
    # fewer at once would break the barrier and fail the evaluations
    barrier = threading.Barrier(k, timeout=5)

    def objective(point: Point, eval_id: int) -> float:
        barrier.wait()
        return sphere_objective(point, eval_id)

    manager = TuningManager(SPACE2)
    manager.register_solver(RandomSearch(SPACE2, seed=6, batch=2 * k))
    history = manager.run(objective, Budget(4 * k, max_concurrency=k))
    assert [r.status for r in history.records] == ["ok"] * (4 * k)


@pytest.mark.parametrize("k", [1, 2, 8])
def test_at_most_k_evaluations_run_at_once(k):
    sizes = [max(k // 2, 1), k, 3 * k + 1, 2]  # batches smaller and larger than k
    probe = ConcurrencyProbe()
    manager = TuningManager(SPACE2)
    manager.register_solver(ScriptedSolver(distinct_batches(sizes)))
    history = manager.run(probe, Budget(100, max_concurrency=k))
    assert history.evaluations == sum(sizes)
    assert 1 <= probe.peak <= k


@pytest.mark.parametrize("k", [1, 2, 4])
def test_the_calling_thread_evaluates_too(monkeypatch, k):
    # the caller is one of the K evaluators: at K = 1 it evaluates every
    # point and no thread starts; above, it evaluates beside K - 1 pool threads
    started: list[threading.Thread] = []
    start = threading.Thread.start

    def counting_start(thread: threading.Thread) -> None:
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    probe = ConcurrencyProbe()
    manager = TuningManager(SPACE2)
    manager.register_solver(ScriptedSolver(distinct_batches([1, 3, 5])))
    history = manager.run(probe, Budget(100, max_concurrency=k))
    assert history.evaluations == 9
    assert threading.get_ident() in probe.threads  # the batch of one runs on the caller
    assert len(probe.threads) <= k and 1 <= probe.peak <= k
    assert len(started) <= k - 1
    if k == 1:
        assert probe.threads == {threading.get_ident()} and not started


@pytest.mark.parametrize("k", [1, 2, 4])
def test_each_iteration_submits_at_most_k_tasks(monkeypatch, k):
    sizes = [1, k, 3 * k + 1, 2]
    solver = ContractSolver(distinct_batches(sizes))
    submits: list[int] = []  # the iteration of each submit: the asks made so far
    original = manager_module.ThreadPoolExecutor.submit

    def counting(pool, fn, *args, **kwargs):
        submits.append(len(solver.asks))
        return original(pool, fn, *args, **kwargs)

    monkeypatch.setattr(manager_module.ThreadPoolExecutor, "submit", counting)
    manager = TuningManager(SPACE2)
    manager.register_solver(solver)
    objective = counted(sphere_objective)
    history = manager.run(objective, Budget(100, max_concurrency=k))
    assert len(objective.calls) == history.evaluations == sum(sizes)
    assert [submits.count(i) for i in range(1, len(sizes) + 1)] == [min(k, n) - 1 for n in sizes]


def test_drains_evaluate_every_point_once_under_fast_thread_switching():
    # more workers than cores and a short switch interval give a lost or
    # doubled take from the shared point iterator every chance to show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        objective = counted(sphere_objective)
        manager = TuningManager(SPACE2)
        manager.register_solver(RandomSearch(SPACE2, seed=12, batch=37))
        history = manager.run(objective, Budget(400, max_concurrency=8))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(objective.calls) == list(range(1, 401))
    assert [r.eval_id for r in history.records] == list(range(1, 401))


@pytest.mark.parametrize("k", [1, 2])
def test_keyboard_interrupt_in_objective_propagates_and_joins_the_pool(k):
    before = set(threading.enumerate())
    for raise_at, batch in ((3, 5), (1, 20)):
        calls = []

        def objective(point: Point, eval_id: int) -> float:
            calls.append(eval_id)
            if eval_id == raise_at:
                raise KeyboardInterrupt
            time.sleep(0.01)  # the other drains are mid-point when the interrupt comes
            return sphere_objective(point, eval_id)

        manager = TuningManager(SPACE2)
        manager.register_solver(RandomSearch(SPACE2, seed=7, batch=batch))
        with pytest.raises(KeyboardInterrupt):
            manager.run(objective, Budget(20, max_concurrency=k))
        assert len(calls) <= raise_at + k  # the drains stop after their current point
        assert set(threading.enumerate()) <= before  # no pool thread left alive


@pytest.mark.parametrize("k", [2, 3])
def test_interrupt_while_the_pool_starts_a_thread_joins_that_thread(monkeypatch, k):
    # An interrupt that reaches `pool.submit` after the new thread started but
    # before the pool listed it leaves a thread that leaving the pool does not
    # join; `run` must still return only once that thread has ended.
    before = set(threading.enumerate())
    callers: list[threading.Thread] = []
    started: list[threading.Thread] = []

    def objective(point: Point, eval_id: int) -> float:
        callers.append(threading.current_thread())
        last = len(started) == k - 1 and callers[-1] is started[-1]
        time.sleep(0.2 if last else 0.01)  # the last thread outlasts every other one
        return sphere_objective(point, eval_id)

    start = threading.Thread.start

    def start_then_interrupt(thread: threading.Thread) -> None:
        started.append(thread)
        start(thread)
        if len(started) == k - 1:  # the pool's last thread
            deadline = time.monotonic() + 5.0
            while thread not in callers and time.monotonic() < deadline:
                time.sleep(0.001)
            raise KeyboardInterrupt

    monkeypatch.setattr(threading.Thread, "start", start_then_interrupt)
    manager = TuningManager(SPACE2)
    manager.register_solver(RandomSearch(SPACE2, seed=7, batch=20))
    with pytest.raises(KeyboardInterrupt):
        manager.run(objective, Budget(20, max_concurrency=k))
    assert len(started) == k - 1
    assert started[-1] in callers  # the interrupt came while that thread evaluated
    assert threading.current_thread() not in callers  # the caller never reached its drain
    assert set(threading.enumerate()) <= before  # no pool thread left alive
    assert len(callers) <= k + 1


@pytest.fixture
def sigint_raises():
    """SIGINT raises KeyboardInterrupt on the main thread for the test's duration."""
    if not hasattr(signal, "pthread_kill"):
        pytest.skip("needs signal.pthread_kill")
    if threading.current_thread() is not threading.main_thread():
        pytest.skip("SIGINT is handled on the main thread")
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        yield threading.get_ident()
    finally:
        signal.signal(signal.SIGINT, handler)


@pytest.mark.parametrize("k", [1, 2])
def test_interrupt_while_the_caller_evaluates_stops_the_batch(sigint_raises, k):
    before = set(threading.enumerate())
    main = sigint_raises
    calls, at_interrupt = [], []
    evaluating = threading.Event()

    def objective(point: Point, eval_id: int) -> float:
        calls.append(eval_id)
        if threading.get_ident() == main and not evaluating.is_set():
            evaluating.set()
            time.sleep(5.0)  # the interrupt cuts this short
        time.sleep(0.01)
        return sphere_objective(point, eval_id)

    def interrupt() -> None:
        if evaluating.wait(5.0):
            at_interrupt.append(len(calls))
            signal.pthread_kill(main, signal.SIGINT)

    sender = threading.Thread(target=interrupt)
    sender.start()
    started = time.monotonic()
    try:
        manager = TuningManager(SPACE2)
        manager.register_solver(RandomSearch(SPACE2, seed=7, batch=20))
        with pytest.raises(KeyboardInterrupt):
            manager.run(objective, Budget(20, max_concurrency=k))
    finally:
        sender.join(5.0)
    assert not sender.is_alive() and at_interrupt
    assert time.monotonic() - started < 2.0  # the caller's evaluation did not run to its end
    assert len(calls) <= at_interrupt[0] + k  # the pool's drains stop after their current point
    assert set(threading.enumerate()) <= before  # no pool thread left alive


@pytest.mark.parametrize("k", [2, 3])
def test_interrupt_while_waiting_for_the_drains_stops_the_batch(sigint_raises, k):
    # The caller waits only once its own drain has found no point left, so the
    # interrupt comes after the whole batch was taken, and the run must stop
    # there instead of starting the next iteration.
    before = set(threading.enumerate())
    main = sigint_raises
    lock = threading.Lock()
    calls, on_main, waited = [], [], []

    def objective(point: Point, eval_id: int) -> float:
        on_caller = threading.get_ident() == main
        with lock:
            calls.append(eval_id)
            on_main.append(on_caller)
            first_on_pool = not on_caller and not waited
            if first_on_pool:
                waited.append(eval_id)
        if first_on_pool:
            deadline = time.monotonic() + 5.0
            while len(calls) < 10 and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.1)  # the caller's drain has returned; it waits on the pool's
            signal.pthread_kill(main, signal.SIGINT)
        time.sleep(0.01)
        return sphere_objective(point, eval_id)

    manager = TuningManager(SPACE2)
    manager.register_solver(RandomSearch(SPACE2, seed=7, batch=10))
    with pytest.raises(KeyboardInterrupt):
        manager.run(objective, Budget(20, max_concurrency=k))
    assert sorted(calls) == list(range(1, 11))  # the first batch, and no second iteration
    assert any(on_main) and waited
    assert set(threading.enumerate()) <= before  # no pool thread left alive


# -- history / summary ---------------------------------------------------------------------


def test_history_convergence_non_increasing():
    history = _run_hybrid(1)
    assert len(assert_convergence_matches_rescan(history)) == history.evaluations


def test_report_mixed_statuses():
    objective = BuiltinObjective(
        "cliff", SPACE2, {"base": "sphere", "fail_var": 0, "fail_above": 3.0}, seed=0
    )
    manager = TuningManager(SPACE2)
    manager.register_solver(RandomSearch(SPACE2, seed=21))
    history = manager.run(lambda p, e: objective(p, e), Budget(40))
    summary = history.summary()
    ok_records = [r for r in history.records if r.ok]
    assert summary["best"]["objective"] == min(r.objective for r in ok_records)
    assert summary["status_counts"]["ok"] == len(ok_records)
    assert summary["status_counts"]["fail"] == 40 - len(ok_records)


def test_report_all_failures_has_no_best():
    def always_fail(point, eval_id):
        raise ValueError("nope")

    manager = TuningManager(SPACE2)
    manager.register_solver(RandomSearch(SPACE2, seed=1))
    history = manager.run(always_fail, Budget(10))
    summary = history.summary()
    assert summary["best"] is None
    assert summary["status_counts"]["fail"] == 10


def test_single_ok_record_best():
    p = Point([0.1, 0.2])
    solver = ScriptedSolver([[p]])
    manager = TuningManager(SPACE2)
    manager.register_solver(solver)
    history = manager.run(sphere_objective, Budget(5))
    assert history.summary()["best"]["objective"] == pytest.approx(0.05)


def test_wall_times_are_fractional_milliseconds():
    manager = TuningManager(SPACE2)
    manager.register_solver(RandomSearch(SPACE2, seed=2))
    history = manager.run(sphere_objective, Budget(20))
    # a sub-millisecond objective no longer rounds down to 0
    assert all(isinstance(r.wall_time_ms, float) and 0.0 < r.wall_time_ms for r in history.records)
