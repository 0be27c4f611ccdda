"""Cross-cutting solver contract checks: ask caps, foreign-record tolerance,
and mixed-space support for every registered solver type."""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import tunekit.manager as manager_module
from helpers import counted
from tunekit.cache import canonical_key
from tunekit.manager import TuningManager
from tunekit.solvers import SOLVERS, BayesConfig, HybridConfig, make_solver
from tunekit.space import (
    CategoricalVariable,
    ContinuousVariable,
    IntegerVariable,
    Point,
    SearchSpace,
    encode,
)
from tunekit.trials import Budget, TrialRecord

CONT2 = SearchSpace([ContinuousVariable("x", 0.0, 1.0), ContinuousVariable("y", 0.0, 1.0)])
MIXED = SearchSpace(
    [
        ContinuousVariable("x", -1.0, 2.0),
        IntegerVariable("k", 1, 9),
        CategoricalVariable("c", ("a", "b", "c")),
    ]
)


def _params(solver_type: str) -> dict:
    return {"n": 40} if solver_type == "lhs" else {}


def _objective(point: Point, eval_id: int) -> float:
    total = 0.0
    for v in point.values:
        if isinstance(v, str):
            total += ("a", "b", "c").index(v)
        else:
            total += float(v) ** 2
    return total


@pytest.mark.parametrize("solver_type", SOLVERS)
def test_unknown_param_raises_type_error_naming_it(solver_type):
    with pytest.raises(TypeError, match="warp"):
        make_solver(solver_type, CONT2, seed=7, params={**_params(solver_type), "warp": 9})


def _readme_params() -> dict[str, set[str]]:
    """Param names per type from README's "Solver `params` by type" list: the
    backquoted words before a bullet's colon are types, those after it params."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("Solver `params` by type", 1)[1].split("\n\n", 2)[1]
    documented = {}
    for bullet in re.split(r"\n(?=- )", section):
        head, _, tail = bullet.partition(":")
        for solver_type in re.findall(r"`([^`]+)`", head):
            documented[solver_type] = set(re.findall(r"`([^`]+)`", tail))
    return documented


def _accepted_params(solver_type: str) -> set[str]:
    config_class = {"hybrid": HybridConfig, "bayes": BayesConfig}.get(solver_type)
    if config_class is not None:
        return {f.name for f in dataclasses.fields(config_class)}
    params = inspect.signature(SOLVERS[solver_type]).parameters
    assert all(p.kind is not p.VAR_KEYWORD for p in params.values()), solver_type
    return set(params) - {"space", "seed"}


def test_readme_lists_exactly_the_params_each_constructor_accepts():
    documented = _readme_params()
    assert set(documented) == set(SOLVERS)
    for solver_type in SOLVERS:
        assert documented[solver_type] == _accepted_params(solver_type), solver_type


@pytest.mark.parametrize("solver_type", SOLVERS)
def test_ask_respects_cap(solver_type):
    solver = make_solver(solver_type, CONT2, seed=7, params=_params(solver_type))
    for cap in (3, 1, 5):
        points = solver.ask(cap)
        assert len(points) <= cap
        records = [
            TrialRecord(
                point=p,
                key=canonical_key(CONT2, p),
                encoded=encode(CONT2, p),
                objective=_objective(p, 0),
                status="ok",
                solver_id="t",
                iteration=1,
                eval_id=i + 1,
            )
            for i, p in enumerate(points)
        ]
        if records:
            solver.tell(records)


@pytest.mark.parametrize("solver_type", SOLVERS)
def test_foreign_records_tolerated(solver_type):
    solver = make_solver(solver_type, CONT2, seed=7, params=_params(solver_type))
    points = solver.ask(5)
    foreign_point = Point([0.123456789, 0.987654321])
    foreign = TrialRecord(
        point=foreign_point,
        key=canonical_key(CONT2, foreign_point),
        encoded=encode(CONT2, foreign_point),
        objective=0.5,
        status="ok",
        solver_id="other",
        iteration=1,
        eval_id=999,
    )
    records = [
        TrialRecord(
            point=p,
            key=canonical_key(CONT2, p),
            encoded=encode(CONT2, p),
            objective=_objective(p, 0),
            status="ok",
            solver_id="t",
            iteration=1,
            eval_id=i + 1,
        )
        for i, p in enumerate(points)
    ]
    solver.tell(records + [foreign])
    solver.ask(5)  # still functional afterwards


@pytest.mark.parametrize("solver_type", SOLVERS)
def test_mixed_space_end_to_end(solver_type, monkeypatch):
    solver = make_solver(solver_type, MIXED, seed=11, params=_params(solver_type))
    monkeypatch.setattr(manager_module, "MAX_STALL_ITERATIONS", 5)
    manager = TuningManager(MIXED)
    manager.register_solver(solver)
    objective = counted(_objective)
    history = manager.run(objective, Budget(30, max_concurrency=2))
    assert 1 <= len(history.records) <= 30
    assert len(objective.calls) == len(history.records)


def test_full_ensemble_shares_and_stays_deterministic():
    space = CONT2
    outcomes = {}
    for k in (1, 8):
        manager = TuningManager(space)
        for i, solver_type in enumerate(SOLVERS):
            params = {"n": 30, "batch": 5} if solver_type in ("random", "lhs") else {}
            manager.register_solver(
                make_solver(solver_type, space, seed=100 + i, params=params), share_in=True
            )
        objective = counted(_objective)
        history = manager.run(objective, Budget(150, max_concurrency=k))
        assert len(objective.calls) <= 150
        solver_ids = {r.solver_id for r in history.records}
        assert len(solver_ids) >= 5  # round-robin feeds nearly everyone
        outcomes[k] = (
            {r.point.values for r in history.records},
            history.best_record().objective,
        )
    assert outcomes[1] == outcomes[8]


def test_tell_exception_isolates_solver():
    from tunekit.solvers.samplers import RandomSearch

    class BadTell(RandomSearch):
        def tell(self, records):
            raise RuntimeError("tell exploded")

    bad = BadTell(CONT2, seed=1, batch=2)
    manager = TuningManager(CONT2)
    manager.register_solver(bad)
    manager.register_solver(make_solver("random", CONT2, seed=2))
    history = manager.run(_objective, Budget(25))
    assert len(history.records) == 25  # survivor still consumed the budget
