"""Resource-allocation simulator: how should a fixed worker grid be split
between per-model training parallelism and tuning parallelism?

Per-model training time follows t(w) = t_serial / w + c_comm * (w - 1) +
t_fixed: serial work sped up by w workers, plus a communication cost that
grows with every extra worker. A grid of G workers training w at a time runs
B = floor(G / w) models concurrently; iterations are barriers, so each one
takes ceil(batch / min(B, batch)) training waves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CostModel:
    t_serial: float
    c_comm: float
    t_fixed: float

    def __post_init__(self) -> None:
        params = (self.t_serial, self.c_comm, self.t_fixed)
        if not all(math.isfinite(v) for v in params):
            raise ValueError(f"cost model parameters must be finite, got {params}")
        if self.t_serial < 0 or self.c_comm < 0 or self.t_fixed < 0:
            raise ValueError("cost model parameters must be non-negative")
        if self.t_serial + self.t_fixed <= 0:
            raise ValueError("t(w) must be positive for w >= 1")

    def train_time(self, workers: int) -> float:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return self.t_serial / workers + self.c_comm * (workers - 1) + self.t_fixed


@dataclass(frozen=True)
class AllocationPlan:
    grid_size: int
    workers_per_train: int
    batch_size: int

    def __post_init__(self) -> None:
        if not 1 <= self.workers_per_train <= self.grid_size:
            raise ValueError("need 1 <= workers_per_train <= grid_size")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    @property
    def parallel_slots(self) -> int:
        return self.grid_size // self.workers_per_train

    @property
    def concurrent_models(self) -> int:
        return min(self.parallel_slots, self.batch_size)


def makespan(plan: AllocationPlan, n_iterations: int, model: CostModel) -> float:
    """Total time for n_iterations barrier-synchronized batches."""
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    waves = math.ceil(plan.batch_size / plan.concurrent_models)
    return n_iterations * waves * model.train_time(plan.workers_per_train)


def best_allocation(
    grid_size: int, batch_size: int, n_iterations: int, model: CostModel
) -> AllocationPlan:
    """Exhaustive scan over workers-per-train; ties go to the smallest."""
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    best_plan = None
    best_time = math.inf
    for w in range(1, grid_size + 1):
        plan = AllocationPlan(grid_size, w, batch_size)
        t = makespan(plan, n_iterations, model)
        if t < best_time:
            best_plan, best_time = plan, t
    assert best_plan is not None
    return best_plan


def fit_cost_model(observations: list[tuple[int, float]]) -> tuple[CostModel, float]:
    """Nonnegative least-squares fit of (t_serial, c_comm, t_fixed) to
    (workers, time) measurements; returns (model, residual norm).

    The NNLS solution is the unconstrained least-squares solution on its own
    support, so with three columns it is found exactly by solving each of
    the 7 non-empty column subsets, keeping the solutions with every
    coefficient >= 0 and taking the one with the smallest residual (all
    zeros if none is kept). A column left out has a coefficient of exactly
    0.0."""
    if len(observations) < 3:
        raise ValueError(f"need at least 3 observations, got {len(observations)}")
    workers = [w for w, _ in observations]
    if len(set(workers)) < 3:
        raise ValueError("need at least 3 distinct worker counts")
    if any(w < 1 for w in workers):
        raise ValueError("worker counts must be >= 1")
    design = np.array([[1.0 / w, w - 1.0, 1.0] for w in workers])
    times = np.array([t for _, t in observations], dtype=float)
    coeffs = np.zeros(3)
    residual = float(np.linalg.norm(times))
    for size in (1, 2, 3):
        for cols in itertools.combinations(range(3), size):
            sub = np.linalg.lstsq(design[:, cols], times, rcond=None)[0]
            if np.any(sub < 0):
                continue
            trial = np.zeros(3)
            trial[list(cols)] = sub
            norm = float(np.linalg.norm(design @ trial - times))
            if norm < residual:
                coeffs, residual = trial, norm
    return CostModel(*coeffs.tolist()), residual
