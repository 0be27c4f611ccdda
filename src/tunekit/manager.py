"""Hybrid solver manager: drives registered solvers through an iterative
acquire/evaluate/return loop with concurrent evaluation dispatch.

Each iteration is one pass over the asked points. The manager collects asks
from every live solver (round-robin, capped so the combined batch never
exceeds the remaining budget). It validates each asked point, the only check
of the points solvers hand in, encodes each ask in one call and keys each row
once. Points whose key is neither in the history nor already asked this
iteration are new; each is owned by its first asker and gets an eval_id that
follows the order of asking. The iteration runs at most K drains: one on the
calling thread and the others as tasks of a pool of K - 1 threads (none at
K = 1). Each drain takes the next new point in eval_id order, evaluates it
and stores its record in that point's slot; the calling thread then waits
for the pool's drains. The history appends the new
records and indexes them by key; the iteration's records, new and replayed
from that index, are sorted by eval_id once, and each solver is told the
records of its own asks plus, if it was registered with sharing, every other
record of the iteration. A tell holds each record once, in eval_id order, so
the outcome is independent of completion order and therefore of K. Every
record carries its point's key and encoded row.

Every solver call (is_done, ask with the encoding of its points, tell) is
guarded: a solver whose call raises, or that asks for a point not valid in
the space, is isolated (marked done) without aborting the run. Objective
exceptions become failed records carrying the penalty sentinel; they consume
budget like any real evaluation. A run that raises returns only after every
pool thread has ended.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .cache import CacheKey, row_key
from .space import Point, SearchSpace, encode_points
from .trials import (
    PENALTY_OBJECTIVE,
    STATUS_FAIL,
    STATUS_OK,
    Budget,
    EvaluationFailed,
    TrialRecord,
    TuningHistory,
)

logger = logging.getLogger(__name__)

Objective = Callable[[Point, int], float]

# Consecutive zero-evaluation iterations tolerated before the run is declared
# stalled (duplicate-only solvers never exhaust the budget on their own).
MAX_STALL_ITERATIONS = 50


class Solver(ABC):
    """Ask/tell contract every search method implements.

    tell() may contain records for points the solver never asked for (foreign
    points shared by the manager); implementations must tolerate them.
    """

    solver_id: str = "solver"

    @abstractmethod
    def ask(self, max_points: int) -> list[Point]:
        """Return at most max_points candidate points to evaluate."""

    @abstractmethod
    def tell(self, records: Sequence[TrialRecord]) -> None:
        """Receive evaluated records (own plus shared foreign ones)."""

    def is_done(self) -> bool:
        return False


def check_param(name: str, value, *, integer: bool, minimum: float, strict: bool = False) -> None:
    """Raise ValueError naming the param unless value is a finite number (an
    integer if `integer`), not a bool, that is >= minimum (> minimum if
    `strict`). Solver constructors check the params of a run config with it."""
    kind = Integral if integer else Real
    ok = (
        isinstance(value, kind)
        and not isinstance(value, bool)
        and (isinstance(value, Integral) or math.isfinite(value))
        and (value > minimum if strict else value >= minimum)
    )
    if not ok:
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {what} {'>' if strict else '>='} {minimum}, got {value!r}")


def check_keys(field: str, value, allowed) -> dict:
    """A copy of value; raise ValueError naming the field unless it is a JSON
    object whose keys are all in allowed. Configs read every JSON object with it."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, got {value!r}")
    for key in value:
        if key not in allowed:
            raise ValueError(f"{field} has unknown key {key!r}; it takes {', '.join(allowed) or 'none'}")
    return dict(value)


@dataclass
class _Registration:
    solver: Solver
    share_in: bool
    done: bool = False


class _Ask(NamedTuple):
    """One asked point, encoded and keyed once."""

    reg: _Registration
    point: Point
    row: np.ndarray
    key: CacheKey


class TuningManager:
    def __init__(self, space: SearchSpace):
        self.space = space
        self._registrations: list[_Registration] = []
        self._started = False

    def register_solver(self, solver: Solver, share_in: bool = True) -> str:
        if self._started:
            raise RuntimeError("cannot register solvers after the run has started")
        index = len(self._registrations)
        solver.solver_id = f"{type(solver).__name__.lower()}-{index}"
        self._registrations.append(_Registration(solver, share_in))
        return solver.solver_id

    def run(self, objective: Objective, budget: Budget, seed: int = 0) -> TuningHistory:
        if not self._registrations:
            raise RuntimeError("no solvers registered")
        if self._started:
            raise RuntimeError("manager instances drive a single run")
        self._started = True

        history = TuningHistory(self.space, seed=seed)
        cache = history.by_key  # close_iteration fills it; workers never touch it
        iteration = 0
        stall = 0

        threads = f"tunekit-{id(self):x}"  # the prefix of the pool's thread names
        try:
            # the caller is one of the K evaluators; at K = 1 nothing is submitted, so no thread starts
            with ThreadPoolExecutor(max(budget.max_concurrency - 1, 1), thread_name_prefix=threads) as pool:
                while history.evaluations < budget.max_evaluations:
                    live = [r for r in self._registrations if not r.done]
                    live = [r for r in live if not self._guarded(r, "is_done", r.solver.is_done, failed=True)]
                    if not live:
                        break
                    iteration += 1

                    asks = self._collect_asks(live, iteration, budget.max_evaluations - history.evaluations)
                    if not asks:
                        break  # every live solver declined to ask; nothing can progress

                    new: dict[CacheKey, _Ask] = {}
                    for ask in asks:
                        if ask.key not in cache and ask.key not in new:
                            new[ask.key] = ask  # owned by its first asker
                    fresh = self._evaluate(
                        pool, budget.max_concurrency, objective, new.values(), iteration, history.evaluations
                    )
                    history.close_iteration(len(asks), fresh)

                    stall = stall + 1 if not fresh else 0
                    batch = sorted({ask.key: cache[ask.key] for ask in asks}.values(), key=lambda r: r.eval_id)
                    self._broadcast(live, asks, batch)
                    if stall >= MAX_STALL_ITERATIONS:
                        logger.warning("run stalled: %d iterations without a new evaluation", stall)
                        break
        finally:  # the pool joins only the threads whose start returned, not one an interrupt cut short
            for thread in threading.enumerate():
                if thread.name.startswith(f"{threads}_") and thread.is_alive():
                    thread.join()
        return history

    # -- iteration phases -------------------------------------------------

    def _guarded(self, reg: _Registration, phase: str, call: Callable, *args, failed=None):
        """call(*args), one phase of the solver's protocol; a call that raises
        isolates the solver (marks it done) and returns `failed`."""
        try:
            return call(*args)
        except Exception:
            logger.exception("solver %s %s raised; isolating it", reg.solver.solver_id, phase)
            reg.done = True
            return failed

    def _asks_of(self, reg: _Registration, capacity: int) -> list[_Ask]:
        points = list(reg.solver.ask(capacity))[:capacity]
        rows = encode_points(self.space, points)  # validates each point
        rows.flags.writeable = False  # once for the batch: each record's row is a read-only view
        return [_Ask(reg, point, row, row_key(row)) for point, row in zip(points, rows)]

    def _collect_asks(self, live: list[_Registration], iteration: int, remaining: int) -> list[_Ask]:
        asks: list[_Ask] = []
        start = (iteration - 1) % len(live)
        for offset in range(len(live)):
            reg = live[(start + offset) % len(live)]
            if len(asks) >= remaining:
                break
            asks += self._guarded(reg, "ask", self._asks_of, reg, remaining - len(asks), failed=[])
        return asks

    def _evaluate(
        self,
        pool: ThreadPoolExecutor,
        workers: int,
        objective: Objective,
        new: Iterable[_Ask],
        iteration: int,
        evaluations: int,
    ) -> list[TrialRecord]:
        """Evaluate the new points under eval_ids evaluations+1, ...; the
        records come back in eval_id order.

        At most `workers` drains run: min(workers, len(new)) - 1 go to the
        pool, one hand-off per thread instead of one per point, and one runs
        on the calling thread, which then waits for the others. Each drain
        takes the next point from one shared iterator, so points start in
        eval_id order and an idle drain takes the next one, and writes its
        record into the point's slot. When an evaluation, on any thread, or
        the wait for the drains raises (an interrupt, say), the iterator is
        exhausted, so the other drains stop after their current point
        instead of finishing the batch."""

        def worker(ask: _Ask, eval_id: int) -> TrialRecord:
            start = time.perf_counter()
            try:
                value = float(objective(ask.point, eval_id))
                if not math.isfinite(value):
                    raise EvaluationFailed("non_finite")
                status, reason = STATUS_OK, None
            except EvaluationFailed as exc:
                value, status, reason = PENALTY_OBJECTIVE, STATUS_FAIL, exc.reason
            except Exception as exc:  # objective bugs are data, not crashes
                value, status, reason = PENALTY_OBJECTIVE, STATUS_FAIL, f"exception:{type(exc).__name__}"
            elapsed_ms = (time.perf_counter() - start) * 1000
            return TrialRecord(
                point=ask.point,
                key=ask.key,
                encoded=ask.row,
                objective=value,
                status=status,
                solver_id=ask.reg.solver.solver_id,
                iteration=iteration,
                eval_id=eval_id,
                wall_time_ms=elapsed_ms,
                fail_reason=reason,
            )

        asks = list(new)
        records: list = [None] * len(asks)
        queue = enumerate(asks)
        lock = threading.Lock()

        def stop() -> None:
            with lock:
                for _ in queue:
                    pass

        def drain() -> None:
            while True:
                with lock:
                    index, ask = next(queue, (None, None))
                if ask is None:
                    return
                try:
                    records[index] = worker(ask, evaluations + 1 + index)
                except BaseException:
                    stop()
                    raise

        try:
            tasks = [pool.submit(drain) for _ in range(min(workers, len(asks)) - 1)]
            drain()
            for task in tasks:
                task.result()
        except BaseException:
            stop()
            raise
        return records

    def _broadcast(self, live: list[_Registration], asks: list[_Ask], batch: list[TrialRecord]) -> None:
        """Tell each live solver its share of the iteration's records, which
        come sorted by eval_id and hold each key once."""
        for reg in live:
            if reg.done:
                continue
            if reg.share_in:
                records = batch
            else:
                own = {ask.key for ask in asks if ask.reg is reg}
                records = [r for r in batch if r.key in own]
            if records:
                self._guarded(reg, "tell", reg.solver.tell, records)
