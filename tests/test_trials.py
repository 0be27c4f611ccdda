"""Record/budget validation and history serialization."""

from __future__ import annotations

import json
import math

import pytest

from helpers import assert_convergence_matches_rescan
from tunekit.cache import canonical_key
from tunekit.space import ContinuousVariable, Point, SearchSpace, encode
from tunekit.manager import TuningManager
from tunekit.solvers.samplers import RandomSearch
from tunekit.trials import (
    PENALTY_OBJECTIVE,
    Budget,
    EvaluationFailed,
    TrialRecord,
    TuningHistory,
)

SPACE = SearchSpace([ContinuousVariable("x", 0.0, 1.0)])


def ok_record(
    x: float, objective: float, eval_id: int, iteration: int = 1, wall_time_ms: float = 0.0
) -> TrialRecord:
    return TrialRecord(
        point=Point([x]),
        key=canonical_key(SPACE, Point([x])),
        encoded=encode(SPACE, Point([x])),
        objective=objective,
        status="ok",
        solver_id="s",
        iteration=iteration,
        eval_id=eval_id,
        wall_time_ms=wall_time_ms,
    )


def test_fail_record_requires_penalty_sentinel():
    with pytest.raises(ValueError):
        TrialRecord(
            point=Point([0.5]),
            key=(0.5,),
            encoded=encode(SPACE, Point([0.5])),
            objective=1.0,
            status="fail",
            solver_id="s",
            iteration=1,
            eval_id=1,
        )
    rec = TrialRecord(
        point=Point([0.5]),
        key=(0.5,),
        encoded=encode(SPACE, Point([0.5])),
        objective=PENALTY_OBJECTIVE,
        status="fail",
        solver_id="s",
        iteration=1,
        eval_id=1,
        fail_reason="timeout",
    )
    assert not rec.ok
    assert rec.status_label() == "fail(timeout)"


def test_ok_record_requires_finite_objective():
    with pytest.raises(ValueError):
        ok_record(0.5, math.inf, 1)
    with pytest.raises(ValueError):
        ok_record(0.5, math.nan, 1)


def test_unknown_status_rejected():
    with pytest.raises(ValueError):
        TrialRecord(
            point=Point([0.5]),
            key=(0.5,),
            encoded=encode(SPACE, Point([0.5])),
            objective=1.0,
            status="maybe",
            solver_id="s",
            iteration=1,
            eval_id=1,
        )


def test_record_is_frozen_and_compares_without_its_row():
    row = encode(SPACE, Point([0.5]))
    assert row.flags.writeable
    rec = ok_record(0.5, 1.0, 1)
    twin = TrialRecord(
        point=Point([0.5]),
        key=rec.key,
        encoded=row,
        objective=1.0,
        status="ok",
        solver_id="s",
        iteration=1,
        eval_id=1,
    )
    assert not row.flags.writeable  # the record made the caller's row read-only
    assert twin == rec and hash(twin) == hash(rec) and twin.encoded is row
    assert "encoded" not in repr(twin)
    assert twin != ok_record(0.5, 1.0, 2)
    with pytest.raises(AttributeError):
        twin.objective = 0.0
    with pytest.raises(AttributeError):
        del twin.status
    assert twin.objective == 1.0 and twin.status == "ok"
    with pytest.raises(ValueError):
        ok_record(0.5, 1.0, 1, iteration=-1)
    with pytest.raises(ValueError):
        ok_record(0.5, 1.0, 1, wall_time_ms=-0.5)


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(0)
    with pytest.raises(ValueError):
        Budget(10, max_concurrency=0)
    assert Budget(10).max_concurrency == 1


def test_penalty_sentinel_is_largest_finite_float():
    import sys

    assert PENALTY_OBJECTIVE == sys.float_info.max
    assert math.isfinite(PENALTY_OBJECTIVE)


def test_convergence_rows_skip_until_first_ok():
    history = TuningHistory(SPACE)
    fail = TrialRecord(
        point=Point([0.1]),
        key=(0.1,),
        encoded=encode(SPACE, Point([0.1])),
        objective=PENALTY_OBJECTIVE,
        status="fail",
        solver_id="s",
        iteration=1,
        eval_id=1,
        fail_reason="x",
    )
    history.records = [fail, ok_record(0.2, 3.0, 2), ok_record(0.3, 5.0, 3), ok_record(0.4, 1.0, 4)]
    assert history.convergence_rows() == [(2, 3.0), (3, 3.0), (4, 1.0)]


def test_history_csv_and_summary_roundtrip(tmp_path):
    history = TuningHistory(SPACE, seed=5)
    history.records = [ok_record(0.25, 2.0, 1, wall_time_ms=0.375), ok_record(0.75, 1.0, 2, iteration=2)]
    history.points_asked = 2
    csv_path = tmp_path / "history.csv"
    history.write_history_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "eval_id,iteration,solver_id,x,objective,status,wall_time_ms"
    assert lines[1] == "1,1,s,0.25,2.0,ok,0.375"  # sub-millisecond times are kept

    summary_path = tmp_path / "summary.json"
    history.write_summary_json(summary_path)
    summary = json.loads(summary_path.read_text())
    assert summary["best"]["objective"] == 1.0
    assert summary["seed"] == 5


def test_best_record_ties_go_to_earliest():
    history = TuningHistory(SPACE)
    history.records = [ok_record(0.1, 1.0, 1), ok_record(0.2, 1.0, 2)]
    assert history.best_record().eval_id == 1


def test_convergence_rows_match_rescan_with_failures():
    def objective(p: Point, eval_id: int) -> float:
        if eval_id <= 4 or eval_id % 3 == 0:
            raise EvaluationFailed("boom")
        return round(p.values[0], 1)  # ties between ok records

    manager = TuningManager(SPACE)
    manager.register_solver(RandomSearch(SPACE, seed=2, batch=4))
    history = manager.run(objective, Budget(60))
    assert history.status_counts()["fail"] > 0
    rows = assert_convergence_matches_rescan(history)
    assert rows[0][0] == 5  # the first batch only failed
    assert rows[-1] == (60, history.best_record().objective)
