"""Hybrid solver manager: drives registered solvers through an iterative
acquire/evaluate/return loop with concurrent evaluation dispatch.

Each iteration the manager collects asks from every live solver (round-robin,
capped so the combined batch never exceeds the remaining budget), keys each
asked point once, resolves cache hits without spending budget, evaluates the
remaining unique points on up to K worker threads, and tells every solver its
own records plus — for solvers registered with sharing — everyone else's.
Every record carries its point's key. Batch results are sorted by eval_id
before the tell, so the outcome is independent of completion order and
therefore of K.

A solver whose ask, is_done or tell raises, or that asks for a point that is
not valid in the space, is isolated (marked done) without aborting the run.
Objective exceptions become failed records carrying the penalty sentinel;
they consume budget like any real evaluation.
"""

from __future__ import annotations

import logging
import math
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable, Sequence

from .cache import CacheKey, canonical_key
from .space import Point, SearchSpace
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
DEFAULT_MAX_STALL_ITERATIONS = 50


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


@dataclass
class _Registration:
    solver: Solver
    share_in: bool
    done: bool = False
    asked_keys: list[CacheKey] = field(default_factory=list)


class TuningManager:
    def __init__(
        self,
        space: SearchSpace,
        *,
        max_stall_iterations: int = DEFAULT_MAX_STALL_ITERATIONS,
    ):
        self.space = space
        self._registrations: list[_Registration] = []
        self._started = False
        self._max_stall = max_stall_iterations

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

        cache: dict[CacheKey, TrialRecord] = {}  # workers never touch it
        history = TuningHistory(self.space, seed=seed)
        eval_seq = 0
        iteration = 0
        stall = 0

        with ThreadPoolExecutor(max_workers=budget.max_concurrency) as pool:
            while history.stats.evaluations < budget.max_evaluations:
                live = [r for r in self._registrations if not r.done and not self._is_done(r)]
                if not live:
                    break
                iteration += 1

                asks = self._collect_asks(live, iteration, budget.max_evaluations - history.stats.evaluations)
                if not asks:
                    break  # every live solver declined to ask; nothing can progress

                new_points, replays = self._split_batch(asks, cache)
                history.stats.points_asked += len(asks)
                history.stats.cache_hits += len(asks) - len(new_points)

                owners: dict[CacheKey, str] = {}
                for reg, _, key in asks:
                    owners.setdefault(key, reg.solver.solver_id)
                fresh = self._evaluate(pool, objective, new_points, owners, iteration, eval_seq)
                cache.update(fresh)
                eval_seq += len(fresh)
                history.stats.evaluations += len(fresh)
                history.records.extend(sorted(fresh.values(), key=lambda r: r.eval_id))
                history.close_iteration(iteration)

                stall = stall + 1 if not fresh else 0
                self._broadcast(live, fresh, replays)
                if stall >= self._max_stall:
                    logger.warning("run stalled: %d iterations without a new evaluation", stall)
                    break
        return history

    # -- iteration phases -------------------------------------------------

    def _is_done(self, reg: _Registration) -> bool:
        try:
            return reg.solver.is_done()
        except Exception:
            logger.exception("solver %s is_done raised; isolating it", reg.solver.solver_id)
            reg.done = True
            return True

    def _collect_asks(
        self,
        live: list[_Registration],
        iteration: int,
        remaining: int,
    ) -> list[tuple[_Registration, Point, CacheKey]]:
        asks: list[tuple[_Registration, Point, CacheKey]] = []
        capacity = remaining
        for reg in live:
            reg.asked_keys = []
        start = (iteration - 1) % len(live)
        for offset in range(len(live)):
            reg = live[(start + offset) % len(live)]
            if capacity <= 0:
                break
            try:
                points = list(reg.solver.ask(capacity))[:capacity]
                keys = [canonical_key(self.space, p) for p in points]  # validates each point
            except Exception:
                logger.exception(
                    "solver %s ask raised or asked an invalid point; isolating it", reg.solver.solver_id
                )
                reg.done = True
                continue
            reg.asked_keys = keys
            for p, key in zip(points, keys):
                asks.append((reg, p, key))
            capacity -= len(points)
        return asks

    def _split_batch(
        self,
        asks: list[tuple[_Registration, Point, CacheKey]],
        cache: dict[CacheKey, TrialRecord],
    ) -> tuple[dict[CacheKey, Point], dict[CacheKey, TrialRecord]]:
        """Partition asked points into first-seen new points and cache replays."""
        new_points: dict[CacheKey, Point] = {}
        replays: dict[CacheKey, TrialRecord] = {}
        for _, point, key in asks:
            cached = cache.get(key)
            if cached is not None:
                replays[key] = cached
            elif key not in new_points:
                new_points[key] = point
        return new_points, replays

    def _evaluate(
        self,
        pool: ThreadPoolExecutor,
        objective: Objective,
        new_points: dict[CacheKey, Point],
        owners: dict[CacheKey, str],
        iteration: int,
        eval_seq: int,
    ) -> dict[CacheKey, TrialRecord]:
        def worker(point: Point, key: CacheKey, eval_id: int, solver_id: str) -> TrialRecord:
            start = time.perf_counter()
            try:
                value = float(objective(point, eval_id))
                if not math.isfinite(value):
                    raise EvaluationFailed("non_finite")
                status, reason = STATUS_OK, None
            except EvaluationFailed as exc:
                value, status, reason = PENALTY_OBJECTIVE, STATUS_FAIL, exc.reason
            except Exception as exc:  # objective bugs are data, not crashes
                value, status, reason = PENALTY_OBJECTIVE, STATUS_FAIL, f"exception:{type(exc).__name__}"
            elapsed_ms = (time.perf_counter() - start) * 1000
            return TrialRecord(
                point=point,
                key=key,
                objective=value,
                status=status,
                solver_id=solver_id,
                iteration=iteration,
                eval_id=eval_id,
                wall_time_ms=elapsed_ms,
                fail_reason=reason,
            )

        futures = [
            pool.submit(worker, point, key, eval_seq + i + 1, owners.get(key, "unknown"))
            for i, (key, point) in enumerate(new_points.items())
        ]
        return {rec.key: rec for rec in (f.result() for f in futures)}

    def _broadcast(
        self,
        live: list[_Registration],
        fresh: dict[CacheKey, TrialRecord],
        replays: dict[CacheKey, TrialRecord],
    ) -> None:
        iteration_records = dict(fresh)
        iteration_records.update(replays)
        for reg in live:
            if reg.done:
                continue
            keys: list[CacheKey] = []
            seen: set[CacheKey] = set()
            own_keys = set(reg.asked_keys)
            for key in reg.asked_keys:
                if key not in seen and key in iteration_records:
                    keys.append(key)
                    seen.add(key)
            if reg.share_in:
                for key in iteration_records:
                    if key not in own_keys and key not in seen:
                        keys.append(key)
                        seen.add(key)
            records = sorted((iteration_records[k] for k in keys), key=lambda r: r.eval_id)
            reg.asked_keys = []
            if not records:
                continue
            try:
                reg.solver.tell(records)
            except Exception:
                logger.exception("solver %s tell raised; isolating it", reg.solver.solver_id)
                reg.done = True
