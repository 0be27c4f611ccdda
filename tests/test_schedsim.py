"""Allocation simulator: makespan arithmetic, brute-force optimality, and
cost-model fitting."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import run_python
from tunekit.schedsim import AllocationPlan, CostModel, best_allocation, fit_cost_model, makespan

WORKED = CostModel(t_serial=64.0, c_comm=1.0, t_fixed=1.0)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CostModel(0.0, 1.0, 0.0)  # t(1) would be 0
    for params in ((float("nan"), 0.0, 1.0), (1.0, float("nan"), 1.0), (1.0, 0.0, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            CostModel(*params)
    with pytest.raises(ValueError):
        WORKED.train_time(0)


def test_plan_validation_and_slots():
    plan = AllocationPlan(grid_size=32, workers_per_train=4, batch_size=8)
    assert plan.parallel_slots == 8
    assert plan.concurrent_models == 8
    with pytest.raises(ValueError):
        AllocationPlan(grid_size=4, workers_per_train=5, batch_size=1)


def test_makespan_single_wave():
    # t(4) = 16 + 3 + 1 = 20; batch of 8 fits the 8 slots in one wave
    plan = AllocationPlan(32, 4, 8)
    assert WORKED.train_time(4) == pytest.approx(20.0)
    assert makespan(plan, 1, WORKED) == pytest.approx(20.0)


def test_makespan_hand_arithmetic_w2():
    # t(2) = 64/2 + 1 + 1 = 34; 16 slots for a batch of 64 -> 4 waves -> 136
    plan = AllocationPlan(32, 2, 64)
    assert WORKED.train_time(2) == pytest.approx(34.0)
    assert makespan(plan, 1, WORKED) == pytest.approx(136.0)


def test_makespan_hand_arithmetic_w1():
    # t(1) = 65; 32 slots for a batch of 64 -> 2 waves -> 130
    plan = AllocationPlan(32, 1, 64)
    assert makespan(plan, 1, WORKED) == pytest.approx(130.0)


def test_makespan_scales_with_iterations():
    plan = AllocationPlan(32, 1, 64)
    assert makespan(plan, 5, WORKED) == pytest.approx(5 * 130.0)


def test_best_allocation_worked_example():
    best = best_allocation(32, 64, 1, WORKED)
    assert best.workers_per_train == 1
    assert makespan(best, 1, WORKED) == pytest.approx(130.0)


def test_pure_speedup_prefers_full_grid():
    model = CostModel(t_serial=100.0, c_comm=0.0, t_fixed=0.0)
    best = best_allocation(16, 1, 1, model)
    assert best.workers_per_train == 16


def test_single_model_batch_minimizes_train_time():
    # with batch 1 the makespan is t(w) itself, so the optimum is argmin t(w)
    model = CostModel(t_serial=64.0, c_comm=1.0, t_fixed=1.0)
    times = {w: model.train_time(w) for w in range(1, 33)}
    expected = min(times, key=lambda w: (times[w], w))
    assert best_allocation(32, 1, 1, model).workers_per_train == expected


def test_best_allocation_matches_brute_force_random_models():
    rng = np.random.default_rng(42)
    for _ in range(50):
        grid = int(rng.integers(1, 129))
        batch = int(rng.integers(1, 200))
        iters = int(rng.integers(1, 5))
        model = CostModel(
            t_serial=float(rng.uniform(1, 200)),
            c_comm=float(rng.uniform(0, 5)),
            t_fixed=float(rng.uniform(0, 10)),
        )
        best = best_allocation(grid, batch, iters, model)
        spans = [
            (makespan(AllocationPlan(grid, w, batch), iters, model), w)
            for w in range(1, grid + 1)
        ]
        oracle_span, oracle_w = min(spans)
        assert makespan(best, iters, model) == pytest.approx(oracle_span)
        assert best.workers_per_train == oracle_w  # ties resolved toward small w


def test_makespan_non_increasing_in_grid():
    for w in (1, 2, 4):
        spans = [
            makespan(AllocationPlan(grid, w, 40), 2, WORKED) for grid in range(w, 200, 7)
        ]
        assert all(s2 <= s1 for s1, s2 in zip(spans, spans[1:]))


# -- cost model fitting -----------------------------------------------------------


def test_fit_recovers_exact_model():
    observations = [(w, WORKED.train_time(w)) for w in (1, 2, 4, 8, 16, 32)]
    model, residual = fit_cost_model(observations)
    assert model.t_serial == pytest.approx(64.0, abs=1e-6)
    assert model.c_comm == pytest.approx(1.0, abs=1e-6)
    assert model.t_fixed == pytest.approx(1.0, abs=1e-6)
    assert residual == pytest.approx(0.0, abs=1e-6)


def test_fit_clamps_negative_to_zero_and_refits():
    # data generated with a *decreasing* linear term drives c_comm negative in
    # the unconstrained fit; the constrained fit clamps it to zero and refits
    # the remaining basis, matching a reduced-basis least squares oracle.
    true = lambda w: 10.0 / w + 1.0 - 0.1 * (w - 1)
    observations = [(w, true(w)) for w in (1, 2, 4, 8)]
    unconstrained = np.linalg.lstsq(
        np.array([[1.0 / w, w - 1.0, 1.0] for w, _ in observations]),
        np.array([t for _, t in observations]),
        rcond=None,
    )[0]
    assert unconstrained[1] < 0  # the scenario really does go negative
    model, _ = fit_cost_model(observations)
    assert model.c_comm == 0.0
    reduced = np.linalg.lstsq(
        np.array([[1.0 / w, 1.0] for w, _ in observations]),
        np.array([t for _, t in observations]),
        rcond=None,
    )[0]
    assert model.t_serial == pytest.approx(reduced[0], abs=1e-8)
    assert model.t_fixed == pytest.approx(max(reduced[1], 0.0), abs=1e-8)


def test_fit_satisfies_the_nnls_optimality_conditions():
    # x solves NNLS exactly when x >= 0 and the gradient g = A^T (A x - t)
    # is 0 where x > 0 and >= 0 where x = 0 (the KKT conditions)
    rng = np.random.default_rng(5)
    clamped = 0
    for _ in range(300):
        workers = rng.choice(np.arange(1, 33), size=int(rng.integers(3, 9)), replace=False)
        # positive times around a model whose c_comm may be negative
        t_serial, t_fixed, c_comm = rng.uniform(1, 100), rng.uniform(1, 5), rng.uniform(-0.03, 0.2)
        noise = np.exp(rng.normal(0, 0.1, size=len(workers)))
        times = (t_serial / workers + c_comm * (workers - 1) + t_fixed) * noise
        model, residual = fit_cost_model([(int(w), float(t)) for w, t in zip(workers, times)])
        x = np.array([model.t_serial, model.c_comm, model.t_fixed])
        design = np.array([[1.0 / w, w - 1.0, 1.0] for w in workers])
        gradient = design.T @ (design @ x - times)
        tol = 1e-9 * np.linalg.norm(design) * np.linalg.norm(times)
        assert np.all(x >= 0.0)
        assert np.all(np.abs(gradient[x > 0]) <= tol)
        assert np.all(gradient[x == 0] >= -tol)
        assert residual == pytest.approx(np.linalg.norm(design @ x - times), rel=1e-12, abs=1e-12)
        clamped += int(np.any(x == 0))
    assert clamped >= 50  # the constraint is active in many of the cases


def test_fit_requires_three_distinct_worker_counts():
    with pytest.raises(ValueError):
        fit_cost_model([(1, 10.0), (2, 6.0)])
    with pytest.raises(ValueError):
        fit_cost_model([(2, 10.0), (2, 11.0), (2, 12.0)])


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # fit_cost_model solves its NNLS with numpy; loading scipy would cost
    # every command a fifth of a second
    code = (
        "import sys, tunekit.cli\n"
        "from tunekit.schedsim import fit_cost_model\n"
        "fit_cost_model([(1, 10.0), (2, 6.0), (4, 4.5)])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_python(code).strip() == "[]"
