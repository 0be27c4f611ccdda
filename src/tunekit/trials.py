"""Trial records, budgets, and tuning histories.

Objectives are minimized. Failed evaluations carry the penalty sentinel (the
largest finite float) so they sort behind every real value but still count
against the evaluation budget.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cache import CacheKey
from .space import Point, SearchSpace, Value

PENALTY_OBJECTIVE: float = sys.float_info.max

STATUS_OK = "ok"
STATUS_FAIL = "fail"


class EvaluationFailed(Exception):
    """Raised by an objective to report a failed evaluation with a reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True, init=False)
class TrialRecord:
    """One evaluated point.

    key is canonical_key(space, point) and encoded is encode(space, point),
    both computed once by the manager when the point was asked. encoded is
    made read-only here, so solvers can keep it without copying; it takes no
    part in equality, hashing or repr.

    The manager builds one record per evaluation, so __init__ checks the
    fields and stores them in one assignment of the instance dict, instead
    of a frozen dataclass's setattr per field and a __post_init__ call."""

    point: Point
    key: CacheKey
    encoded: np.ndarray = field(compare=False, repr=False)
    objective: float
    status: str
    solver_id: str
    iteration: int
    eval_id: int
    wall_time_ms: float = 0.0
    fail_reason: str | None = None

    def __init__(
        self,
        point: Point,
        key: CacheKey,
        encoded: np.ndarray,
        objective: float,
        status: str,
        solver_id: str,
        iteration: int,
        eval_id: int,
        wall_time_ms: float = 0.0,
        fail_reason: str | None = None,
    ) -> None:
        if status == STATUS_OK:
            if not math.isfinite(objective):
                raise ValueError(f"ok records need a finite objective, got {objective}")
        elif status == STATUS_FAIL:
            if objective != PENALTY_OBJECTIVE:
                raise ValueError("failed records must carry the penalty sentinel objective")
        else:
            raise ValueError(f"unknown status {status!r}")
        if wall_time_ms < 0 or iteration < 0:
            raise ValueError("wall_time_ms and iteration must be non-negative")
        if encoded.flags.writeable:  # the manager's rows come read-only; reading the flag is cheaper
            encoded.flags.writeable = False
        object.__setattr__(
            self,
            "__dict__",
            {
                "point": point,
                "key": key,
                "encoded": encoded,
                "objective": objective,
                "status": status,
                "solver_id": solver_id,
                "iteration": iteration,
                "eval_id": eval_id,
                "wall_time_ms": wall_time_ms,
                "fail_reason": fail_reason,
            },
        )

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def status_label(self) -> str:
        if self.ok:
            return STATUS_OK
        return f"fail({self.fail_reason})" if self.fail_reason else STATUS_FAIL


@dataclass(frozen=True)
class Budget:
    max_evaluations: int
    max_concurrency: int = 1

    def __post_init__(self) -> None:
        if self.max_evaluations < 1:
            raise ValueError(f"max_evaluations must be >= 1, got {self.max_evaluations}")
        if self.max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {self.max_concurrency}")


def _csv_cell(value: Value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean values are not valid point values")
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a CSV file, quoting a cell only when it holds a comma, a quote or
    a newline. A row with a carriage return in any cell has every cell quoted:
    the writer quotes only the characters of its line terminator, and a
    reader ends a line at a bare carriage return."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        minimal = csv.writer(fh, lineterminator="\n")
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in itertools.chain([header], rows):
            (quote_all if "\r" in "".join(row) else minimal).writerow(row)


@dataclass
class TuningHistory:
    """Ordered log of unique evaluated points, the one record of a run's
    finished evaluations. close_iteration appends each iteration's new
    records and indexes them by key in by_key, the manager's cache.
    points_asked counts every point the solvers asked for, duplicates
    included; every other count is derived from records."""

    space: SearchSpace
    records: list[TrialRecord] = field(default_factory=list)
    points_asked: int = 0
    seed: int = 0
    by_key: dict[CacheKey, TrialRecord] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def evaluations(self) -> int:
        return len(self.records)

    @property
    def cache_hits(self) -> int:
        """Asked points answered without an evaluation: repeats of an earlier
        point or of another point in the same batch."""
        return self.points_asked - self.evaluations

    def best_record(self) -> TrialRecord | None:
        """Best ok record (lowest objective, earliest eval_id on ties)."""
        best = None
        for rec in self.records:
            if rec.ok and (best is None or rec.objective < best.objective):
                best = rec
        return best

    def close_iteration(self, asked: int, fresh: Sequence[TrialRecord]) -> None:
        """Append one iteration's new records (in eval_id order), index them by key and count its asks."""
        self.points_asked += asked
        self.records.extend(fresh)
        self.by_key.update((rec.key, rec) for rec in fresh)

    def status_counts(self) -> dict[str, int]:
        counts = {STATUS_OK: 0, STATUS_FAIL: 0}
        for rec in self.records:
            counts[rec.status] += 1
        return counts

    def convergence_rows(self) -> list[tuple[int, float]]:
        """(eval_id, best objective so far) in eval order, once an ok record exists."""
        rows = []
        best = math.inf
        for rec in sorted(self.records, key=lambda r: r.eval_id):
            if rec.ok and rec.objective < best:
                best = rec.objective
            if math.isfinite(best):
                rows.append((rec.eval_id, best))
        return rows

    def write_history_csv(self, path: str | Path) -> None:
        header = ["eval_id", "iteration", "solver_id", *self.space.names, "objective", "status", "wall_time_ms"]
        rows = (
            [str(rec.eval_id), str(rec.iteration), rec.solver_id, *map(_csv_cell, rec.point.values)]
            + [repr(rec.objective), rec.status_label(), repr(rec.wall_time_ms)]
            for rec in sorted(self.records, key=lambda r: r.eval_id)
        )
        write_csv(path, header, rows)

    def write_convergence_csv(self, path: str | Path) -> None:
        write_csv(path, ["eval_id", "best_so_far"], ((str(e), repr(b)) for e, b in self.convergence_rows()))

    def summary(self) -> dict:
        per_solver: dict[str, float] = {}
        for rec in self.records:
            if rec.ok and (rec.solver_id not in per_solver or rec.objective < per_solver[rec.solver_id]):
                per_solver[rec.solver_id] = rec.objective
        best = self.best_record()
        return {
            "best": None
            if best is None
            else {"point": self.space.to_dict(best.point), "objective": best.objective},
            "status_counts": self.status_counts(),
            "per_solver_best": per_solver,
            "evaluations": self.evaluations,
            "points_asked": self.points_asked,
            "cache_hits": self.cache_hits,
            "seed": self.seed,
        }

    def write_summary_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.summary(), indent=2) + "\n", encoding="utf-8")
