"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line and enforcing its stated tolerance and time budget.

Empirically calibrated thresholds (frozen before release):
  - hybrid on sphere 2D, budget 500: best <= 1e-3 in >= 8/10 seeds
    (calibration run: 10/10 seeds).
  - bayes on Branin, budget 50: median best over seeds 0..9 = 0.4637,
    asserted against the 0.9 ceiling versus the 0.397887 analytic optimum.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tunekit.manager as manager_module
from helpers import RecordingSolver, counted, dense_posterior_oracle
from tunekit.cache import canonical_key
from tunekit.manager import TuningManager
from tunekit.objectives import (
    BRANIN_MINIMUM,
    BRANIN_SPACE,
    MIXED_SYNTHETIC_SPACE,
    BuiltinObjective,
    ExternalObjective,
    KnnObjective,
    PartitionSpec,
    default_knn_space,
    make_blobs,
)
from tunekit.sampling import SampleRequest, lhs_design
from tunekit.schedsim import AllocationPlan, CostModel, best_allocation, makespan
from tunekit.solvers import make_solver
from tunekit.solvers.bayes import BayesSearch, fit_gp
from tunekit.solvers.direct import DirectSearch, longest_axis, split_box
from tunekit.solvers.hybrid import HybridConfig, HybridSearch
from tunekit.solvers.neldermead import SimplexSearch, nm_minimize_many
from tunekit.solvers.samplers import RandomSearch
from tunekit.space import (
    CategoricalVariable,
    ContinuousVariable,
    IntegerVariable,
    Point,
    SearchSpace,
    encode,
)
from tunekit.trials import PENALTY_OBJECTIVE, Budget, EvaluationFailed, TrialRecord


def box(d: int, lo: float = -5.0, hi: float = 5.0) -> SearchSpace:
    return SearchSpace([ContinuousVariable(f"x{i}", lo, hi) for i in range(d)])


def sphere(point: Point, eval_id: int = 0) -> float:
    return sum(float(v) ** 2 for v in point.values)


def knn_task() -> tuple[SearchSpace, KnnObjective]:
    """Overlapping-blob classification whose error genuinely varies with
    (k, weight, power)."""
    dataset = make_blobs(n_rows=200, sigma=1.25, separation=2.0, seed=13)
    space = default_knn_space(train_rows=140)
    return space, KnnObjective(space, dataset, PartitionSpec(validation_fraction=0.3, seed=13))


class _Criterion:
    """Context manager printing the pass/fail line and checking the time cap."""

    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.limit = seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        verdict = "PASS" if exc_type is None and elapsed <= self.limit else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.label}: {verdict} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed <= self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def test_criterion_01_pattern_search_conformance():
    with _Criterion(1, "pattern-search sufficient decrease", 5.0):
        space = box(3)
        solver = HybridSearch(space, seed=5)
        manager = TuningManager(space)
        manager.register_solver(solver)
        manager.run(sphere, Budget(300))
        assert solver.growth_log, "hybrid run must exercise growth steps"
        violations = 0
        for event in solver.growth_log:
            if event.accepted:
                if not (
                    event.f_best_poll < event.f_center - event.alpha * event.delta_before**2
                ):
                    violations += 1
                if event.delta_after != event.delta_before:
                    violations += 1
            elif event.delta_after != event.delta_before / 2:
                violations += 1
        assert violations == 0


def test_criterion_02_budget_and_concurrency_determinism():
    with _Criterion(2, "budget cap and K=1 vs K=8 determinism", 30.0):
        space = box(2)
        for solver_type in ("random", "lhs", "hybrid", "bayes", "direct", "neldermead", "direct-nm"):
            outcomes = {}
            for k in (1, 8):
                params = {"n": 100} if solver_type == "lhs" else {}
                solver = make_solver(solver_type, space, seed=31, params=params)
                manager = TuningManager(space)
                manager.register_solver(solver)
                objective = counted(sphere)
                history = manager.run(objective, Budget(100, max_concurrency=k))
                assert len(objective.calls) <= 100, solver_type
                assert len(history.records) == len(objective.calls)
                outcomes[k] = (
                    {r.point.values for r in history.records},
                    history.best_record().objective,
                )
            assert outcomes[1] == outcomes[8], solver_type


def test_criterion_03_lhs_stratification_exhaustive():
    with _Criterion(3, "LHS one-per-stratum for n in 2..1000", 10.0):
        space = SearchSpace(
            [
                ContinuousVariable("a", -2.0, 7.0),
                ContinuousVariable("b", 0.0, 1.0),
                IntegerVariable("k", 1, 3),
                IntegerVariable("m", 0, 5000),
                CategoricalVariable("c", ("x", "y", "z")),
            ]
        )
        violations = 0
        for n in range(2, 1001):
            design = lhs_design(space, SampleRequest(n, seed=n))
            for col in (0, 1, 2, 3):
                strata = np.floor(design[:, col] * n).astype(int)
                strata[strata == n] = n - 1
                if not np.array_equal(np.sort(strata), np.arange(n)):
                    violations += 1
        assert violations == 0


def test_criterion_04_dedup_zero_duplicate_calls(monkeypatch):
    with _Criterion(4, "duplicate-heavy GA performs no duplicate calls", 5.0):
        space = SearchSpace(
            [IntegerVariable("k", 0, 4), CategoricalVariable("c", ("a", "b", "c"))]
        )

        def mixed(point: Point, eval_id: int) -> float:
            return float(point.values[0]) + 2.0 * ("a", "b", "c").index(point.values[1])

        config = HybridConfig(population=8, centers=2, mutation_prob=0.0)
        monkeypatch.setattr(manager_module, "MAX_STALL_ITERATIONS", 10)
        manager = TuningManager(space)
        manager.register_solver(HybridSearch(space, seed=3, config=config))
        objective = counted(mixed)
        history = manager.run(objective, Budget(100))
        assert history.cache_hits > 0, "run must actually generate duplicates"
        assert len(objective.calls) == history.evaluations == len(history.records)
        assert history.cache_hits + history.evaluations == history.points_asked
        # every evaluated point is unique
        keys = [canonical_key(space, r.point) for r in history.records]
        assert len(keys) == len(set(keys))


def test_criterion_05_cross_solver_sharing():
    with _Criterion(5, "hybrid receives every random-search record", 5.0):
        space = box(2)
        hybrid = RecordingSolver(HybridSearch(space, seed=2))
        manager = TuningManager(space)
        manager.register_solver(hybrid, share_in=True)
        manager.register_solver(RandomSearch(space, seed=7, batch=5), share_in=True)
        history = manager.run(sphere, Budget(60))
        random_ids = {
            r.eval_id for r in history.records if r.solver_id.startswith("randomsearch")
        }
        assert random_ids, "random search must contribute evaluations"
        assert random_ids <= {r.eval_id for r in hybrid.told}


def _median_best(space, objective, solver_factory, budget, seeds):
    bests = []
    for seed in seeds:
        manager = TuningManager(space)
        manager.register_solver(solver_factory(seed))
        history = manager.run(objective, Budget(budget))
        best = history.best_record()
        bests.append(best.objective if best else PENALTY_OBJECTIVE)
    return float(np.median(bests))


def test_criterion_06_hybrid_vs_random_quality():
    with _Criterion(6, "hybrid beats random on >= 2 of 3 tasks", 300.0):
        rastrigin_space = SearchSpace([ContinuousVariable(f"x{i}", -5.12, 5.12) for i in range(3)])
        rastrigin = BuiltinObjective("rastrigin", rastrigin_space)
        mixed = BuiltinObjective("mixed_synthetic", MIXED_SYNTHETIC_SPACE)
        knn_space, knn_objective = knn_task()
        tasks = [
            (rastrigin_space, lambda p, e: rastrigin(p, e)),
            (MIXED_SYNTHETIC_SPACE, lambda p, e: mixed(p, e)),
            (knn_space, lambda p, e: knn_objective(p, e)),
        ]
        wins = 0
        for space, objective in tasks:
            hybrid_median = _median_best(
                space, objective, lambda s: HybridSearch(space, seed=s), 100, range(10)
            )
            random_median = _median_best(
                space, objective, lambda s: RandomSearch(space, seed=s), 100, range(10)
            )
            if hybrid_median <= random_median:
                wins += 1
        assert wins >= 2


def test_criterion_07_learning_over_iterations():
    with _Criterion(7, "final generation beats the first-iteration median", 180.0):
        space, objective = knn_task()
        successes = 0
        for seed in range(10):
            manager = TuningManager(space)
            manager.register_solver(HybridSearch(space, seed=seed))
            history = manager.run(lambda p, e: objective(p, e), Budget(100))
            first = [r.objective for r in history.records if r.iteration == 1]
            last_iteration = max(r.iteration for r in history.records)
            final = [r.objective for r in history.records if r.iteration == last_iteration]
            median_first = float(np.median(first))
            frac_first = sum(v < median_first for v in first) / len(first)
            frac_final = sum(v < median_first for v in final) / len(final)
            if frac_final > frac_first:
                successes += 1
        assert successes >= 8


def test_criterion_08_direct_tiling_and_convergence():
    with _Criterion(8, "DIRECT exact tiling and shifted-sphere search", 60.0):
        for dims in (1, 2):
            boxes = [((Fraction(1, 2),) * dims, (Fraction(1, 2),) * dims)]
            for step in range(50):
                center, half = boxes.pop(step % len(boxes))
                boxes.extend(split_box(center, half, longest_axis(half)))
            assert sum(math.prod(2 * h for h in hw) for _, hw in boxes) == 1
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    (ci, hi), (cj, hj) = boxes[i], boxes[j]
                    assert any(
                        abs(a - b) >= ha + hb for a, b, ha, hb in zip(ci, cj, hi, hj)
                    ), (i, j)

        for d in (1, 2, 3):
            space = box(d, 0.0, 1.0)
            for seed in range(10):
                target = np.random.default_rng(seed + 100 * d).uniform(0.0, 1.0, d)

                def shifted(point: Point, eval_id: int) -> float:
                    x = np.array([float(v) for v in point.values])
                    return float(np.sum((x - target) ** 2))

                manager = TuningManager(space)
                manager.register_solver(DirectSearch(space))
                history = manager.run(shifted, Budget(200))
                assert history.best_record().objective <= 1e-2, (d, seed)


def test_criterion_09_nelder_mead_quadratics():
    with _Criterion(9, "Nelder-Mead 1e-6 on PD quadratics", 30.0):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 5))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            a = q @ np.diag(rng.uniform(0.5, 3.0, d)) @ q.T
            target = rng.uniform(0.2, 0.8, d)

            def fn_rows(rows: np.ndarray) -> list[float]:
                return [float(delta @ a @ delta) for delta in rows - target]

            search = SimplexSearch(np.full(d, 0.5), edge=0.2)
            nm_minimize_many(fn_rows, [search], max_iters=500)
            assert search.best_f <= 1e-6 and search.iterations <= 500, seed


def test_criterion_10_gp_oracle_equivalence():
    with _Criterion(10, "GP posterior matches dense-solve oracle", 10.0):
        mixed = SearchSpace(
            [
                ContinuousVariable("x", 0.0, 1.0),
                IntegerVariable("k", 0, 6),
                CategoricalVariable("c", ("a", "b", "c")),
            ]
        )
        rng = np.random.default_rng(1234)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 6))
            records = []
            for i in range(n):
                p = Point(
                    [
                        float(rng.uniform(0, 1)),
                        int(rng.integers(0, 7)),
                        ("a", "b", "c")[rng.integers(0, 3)],
                    ]
                )
                records.append(
                    TrialRecord(
                        point=p,
                        key=canonical_key(mixed, p),
                        encoded=encode(mixed, p),
                        objective=float(rng.normal()),
                        status="ok",
                        solver_id="t",
                        iteration=1,
                        eval_id=i + 1,
                    )
                )
            try:
                model = fit_gp(mixed, records)
            except Exception:
                continue
            query = Point(
                [float(rng.uniform(0, 1)), int(rng.integers(0, 7)), ("a", "b", "c")[rng.integers(0, 3)]]
            )
            encoded = encode(mixed, query)
            (mu,), (var,) = model.posterior_many(encoded[None])
            mu_o, var_o = dense_posterior_oracle(model, mixed, encoded)
            assert abs(mu - mu_o) <= 1e-8 * (1 + abs(mu_o))
            assert abs(var - var_o) <= 1e-8 * (1 + abs(var_o))
            checked += 1

        # interpolation at training points, benign conditioning
        unit = box(1, 0.0, 1.0)
        recs = [
            TrialRecord(
                point=Point([x]),
                key=canonical_key(unit, Point([x])),
                encoded=encode(unit, Point([x])),
                objective=y,
                status="ok",
                solver_id="t",
                iteration=1,
                eval_id=i + 1,
            )
            for i, (x, y) in enumerate(zip((0.0, 0.5, 1.0), (2.5, -1.8, 1.2)))
        ]
        model = fit_gp(unit, recs)
        for r in recs:
            (mu,), _ = model.posterior_many(encode(unit, r.point)[None])
            assert abs(mu - r.objective) <= 1e-3 * abs(r.objective) + 1e-6

        # far field reverts to the prior
        wide = SearchSpace([ContinuousVariable("x", 0.0, 1000.0)])
        recs = [
            TrialRecord(
                point=Point([float(x)]),
                key=canonical_key(wide, Point([float(x)])),
                encoded=encode(wide, Point([float(x)])),
                objective=y,
                status="ok",
                solver_id="t",
                iteration=1,
                eval_id=i + 1,
            )
            for i, (x, y) in enumerate(zip((0.0, 1.0), (5.0, 7.0)))
        ]
        model = fit_gp(wide, recs)
        (mu,), (var,) = model.posterior_many(encode(wide, Point([1000.0]))[None])
        assert mu == pytest.approx(model.prior_mean, rel=0.01)
        assert var == pytest.approx(model.signal_var, rel=0.01)


def test_criterion_11_bayes_branin_quality():
    with _Criterion(11, "Branin median best <= 0.9 over 10 seeds", 60.0):
        objective = BuiltinObjective("branin", BRANIN_SPACE)
        bests = []
        for seed in range(10):
            manager = TuningManager(BRANIN_SPACE)
            manager.register_solver(BayesSearch(BRANIN_SPACE, seed=seed))
            history = manager.run(lambda p, e: objective(p, e), Budget(50))
            bests.append(history.best_record().objective)
        median = float(np.median(bests))
        assert median <= 0.9, f"median {median} vs analytic optimum {BRANIN_MINIMUM}"


def test_criterion_12_scheduler_oracle_and_worked_example():
    with _Criterion(12, "allocation optimum matches brute force", 5.0):
        rng = np.random.default_rng(99)
        for _ in range(50):
            grid = int(rng.integers(1, 129))
            batch = int(rng.integers(1, 150))
            iters = int(rng.integers(1, 4))
            model = CostModel(
                t_serial=float(rng.uniform(1, 300)),
                c_comm=float(rng.uniform(0, 4)),
                t_fixed=float(rng.uniform(0, 8)),
            )
            best = best_allocation(grid, batch, iters, model)
            spans = [
                (makespan(AllocationPlan(grid, w, batch), iters, model), w)
                for w in range(1, grid + 1)
            ]
            oracle_span, oracle_w = min(spans)
            assert makespan(best, iters, model) == pytest.approx(oracle_span)
            assert best.workers_per_train == oracle_w

        worked = CostModel(t_serial=64.0, c_comm=1.0, t_fixed=1.0)
        best = best_allocation(32, 64, 1, worked)
        assert best.workers_per_train == 1
        assert makespan(best, 1, worked) == pytest.approx(130.0)


def test_criterion_13_failure_tolerance():
    with _Criterion(13, "cliff objective: failures are data", 30.0):
        space = box(2)
        # x0 > 3 fails: 20% of the [-5, 5] range of the first variable
        objective = BuiltinObjective(
            "cliff", space, {"base": "sphere", "fail_var": 0, "fail_above": 3.0}
        )
        manager = TuningManager(space)
        manager.register_solver(HybridSearch(space, seed=4))
        history = manager.run(lambda p, e: objective(p, e), Budget(150))
        assert len(history.records) == 150
        fails = [r for r in history.records if not r.ok]
        assert fails, "the 20% failing volume should be sampled"
        assert all(r.objective == PENALTY_OBJECTIVE for r in fails)
        best = history.best_record()
        assert best is not None and float(best.point.values[0]) <= 3.0


def test_criterion_14_external_protocol(tmp_path: Path):
    with _Criterion(14, "external stub statuses round-trip", 10.0):
        import sys

        space = SearchSpace([ContinuousVariable("x", 0.0, 1.0)])

        def stub(body: str) -> list[str]:
            script = tmp_path / f"stub{abs(hash(body)) % 1000}.py"
            script.write_text(body, encoding="utf-8")
            return [sys.executable, str(script)]

        ok = ExternalObjective(
            space,
            stub('import sys, json; sys.stdin.readline(); print(json.dumps({"objective": 1.5}))'),
            timeout_ms=5000,
        )
        assert ok(Point([0.5])) == 1.5

        nonzero = ExternalObjective(space, stub("import sys; sys.exit(2)"), timeout_ms=5000)
        with pytest.raises(EvaluationFailed) as err:
            nonzero(Point([0.5]))
        assert err.value.reason == "nonzero_exit"

        sleeper = ExternalObjective(space, stub("import time; time.sleep(30)"), timeout_ms=400)
        started = time.monotonic()
        with pytest.raises(EvaluationFailed) as err:
            sleeper(Point([0.5]))
        assert err.value.reason == "timeout"
        assert time.monotonic() - started <= 0.4 + 0.5
