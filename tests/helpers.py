"""Shared test utilities: independent oracles and instrumentation wrappers."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tunekit
from tunekit.cache import canonical_key
from tunekit.manager import Solver
from tunekit.objectives import Dataset
from tunekit.sampling import SampleRequest, lhs_sample
from tunekit.solvers.bayes import CANDIDATE_COUNT, REFINE_MAX_ITERS, GPModel
from tunekit.solvers.neldermead import CONTRACT, DEGENERATE_VOLUME, EXPAND, REFLECT, REINIT_EDGE, SHRINK
from tunekit.space import ContinuousVariable, IntegerVariable, Point, SearchSpace, decode, encode
from tunekit.trials import TrialRecord


def run_python(code: str) -> str:
    """Stdout of a fresh interpreter running code, with the tunekit package
    these tests import on its path; raises if it exits non-zero."""
    src = str(Path(tunekit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout


def strip_wall_time(history_csv: str) -> str:
    """A history.csv without its last column, wall_time_ms."""
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in history_csv.splitlines())


def reference_random_sample(space: SearchSpace, req: SampleRequest) -> list[Point]:
    """random_sample built column by column per variable kind, one Python
    value at a time; the draws are made in the same order."""
    rng = np.random.default_rng(req.seed)
    columns: list[list] = []
    for var in space.variables:
        if isinstance(var, ContinuousVariable):
            columns.append(list(rng.uniform(var.lo, var.hi, req.n)))
        elif isinstance(var, IntegerVariable):
            columns.append([int(k) for k in rng.integers(var.lo, var.hi + 1, req.n)])
        else:
            columns.append([var.levels[i] for i in rng.integers(0, len(var.levels), req.n)])
    return [Point(col[i] for col in columns) for i in range(req.n)]


def encoded_sqdistance(space: SearchSpace, ea: np.ndarray, eb: np.ndarray) -> float:
    """Plain-Python squared mixed metric on encoded vectors, summed in channel
    order: d * d over the numeric channels, then a 0/1 mismatch per
    categorical channel."""
    total = 0.0
    for i in space.numeric_indices:
        d = float(ea[i]) - float(eb[i])
        total += d * d
    for i in space.categorical_indices:
        total += 0.0 if ea[i] == eb[i] else 1.0
    return total


def encoded_distance(space: SearchSpace, ea: np.ndarray, eb: np.ndarray) -> float:
    """Plain scalar mixed metric on encoded vectors: Euclidean on numeric
    channels plus a 0/1 mismatch per categorical channel."""
    return math.sqrt(encoded_sqdistance(space, ea, eb))


def scalar_knn_error_rate(train: Dataset, validation: Dataset, k: int, weight: str, power: float) -> float:
    """k-NN misclassification rate one validation row at a time: a stable
    argsort of the row's distances (np.sum(|diff| ** power, axis=2) **
    (1 / power)), then the first k neighbours' votes added in order; argmax
    takes the first maximum, the smallest label."""
    labels = sorted(set(train.labels))
    label_idx = {lab: i for i, lab in enumerate(labels)}
    diffs = np.abs(validation.features[:, None, :] - train.features[None, :, :])
    dists = np.sum(diffs**power, axis=2) ** (1.0 / power)
    errors = 0
    for row, true_label in enumerate(validation.labels):
        votes = np.zeros(len(labels))
        for t in np.argsort(dists[row], kind="stable")[:k]:
            w = 1.0 if weight == "uniform" else 1.0 / (dists[row, t] + 1e-12)
            votes[label_idx[train.labels[t]]] += w
        if labels[int(np.argmax(votes))] != true_label:
            errors += 1
    return errors / len(validation)


def dense_posterior_oracle(model: GPModel, space: SearchSpace, query: np.ndarray):
    """Independent rebuild of the GP posterior with plain dense solves:
    mu = m + k*^T (K + jitter I)^-1 (y - m), var = k(x,x) - k*^T (...)^-1 k*."""
    x_train = model.train_x
    n = len(x_train)
    sf2, ell = model.signal_var, model.length_scale

    def kern(a, b):
        return sf2 * math.exp(-encoded_distance(space, a, b) ** 2 / (2 * ell**2))

    k_mat = np.array([[kern(x_train[i], x_train[j]) for j in range(n)] for i in range(n)])
    a_mat = k_mat + model.jitter * np.eye(n)
    y_minus_m = a_mat @ model._alpha  # recover centered targets from the fit
    k_star = np.array([kern(query, x_train[i]) for i in range(n)])
    mu = model.prior_mean + k_star @ np.linalg.solve(a_mat, y_minus_m)
    var = sf2 - k_star @ np.linalg.solve(a_mat, k_star)
    return float(mu), max(float(var), 0.0)


def _list_axis_simplex(x0: np.ndarray, edge: float) -> list[np.ndarray]:
    vertices = [x0.copy()]
    for i in range(len(x0)):
        v = x0.copy()
        step = edge if x0[i] + edge <= 1.0 else -edge
        v[i] = min(max(v[i] + step, 0.0), 1.0)
        vertices.append(v)
    return vertices


def _list_is_degenerate(vertices: list[np.ndarray]) -> bool:
    if len(vertices) < 2:
        return True
    basis = np.asarray(vertices[1:]) - vertices[0]
    scale = float(np.max(np.abs(basis)))
    if scale == 0.0:
        return True
    m = len(basis)
    volume = abs(float(np.linalg.det(basis))) / math.factorial(m)
    return volume / scale**m < DEGENERATE_VOLUME


class ListSimplexSearch:
    """The simplex state machine of tunekit.solvers.neldermead as it was with
    its vertices kept as a list of arrays, one vertex per array, and each
    step building its arrays from that list. It also records in `events`
    each degenerate re-initialisation, shrink and collision of a clipped
    candidate with a vertex."""

    def __init__(self, x0=None, edge: float = 0.1, vertices=None):
        if vertices is not None:
            self._init_vertices = [np.asarray(v, dtype=float) for v in vertices]
        else:
            self._init_vertices = _list_axis_simplex(np.asarray(x0, dtype=float), edge)
        self.iterations = 0
        self.best_x: np.ndarray | None = None
        self.best_f = math.inf
        self.events: list[str] = []
        self._verts: list[np.ndarray] = []
        self._fs: list[float] = []
        self._gen = self._main()
        self._pending: list[np.ndarray] = next(self._gen)

    def pending(self) -> list[np.ndarray]:
        return [p.copy() for p in self._pending]

    def advance(self, values) -> None:
        for x, f in zip(self._pending, values):
            if f < self.best_f:
                self.best_f = float(f)
                self.best_x = x.copy()
        self._pending = self._gen.send([float(f) for f in values])

    def value_spread(self) -> float:
        if not self._fs:
            return math.inf
        return max(self._fs) - min(self._fs)

    def _collides(self, x: np.ndarray) -> bool:
        hit = bool(np.any(np.max(np.abs(np.asarray(self._verts) - x), axis=1) < 1e-15))
        if hit:
            self.events.append("collision")
        return hit

    def _sort(self) -> None:
        order = sorted(range(len(self._fs)), key=lambda i: self._fs[i])
        self._verts = [self._verts[i] for i in order]
        self._fs = [self._fs[i] for i in order]

    def _main(self):
        self._verts = [v.copy() for v in self._init_vertices]
        self._fs = list((yield self._verts))
        while True:
            self._sort()
            if _list_is_degenerate(self._verts):
                self.events.append("reinit")
                best = self._verts[0]
                rebuilt = _list_axis_simplex(best, REINIT_EDGE)
                self._verts = [best.copy()] + rebuilt[1:]
                new_fs = yield rebuilt[1:]
                self._fs = [self._fs[0]] + list(new_fs)
                self._sort()
            self.iterations += 1
            worst = self._verts[-1]
            f_worst = self._fs[-1]
            centroid = np.mean(self._verts[:-1], axis=0)

            xr = np.clip(centroid + REFLECT * (centroid - worst), 0.0, 1.0)
            fr = math.inf if self._collides(xr) else (yield [xr])[0]

            if fr < self._fs[0]:
                xe = np.clip(centroid + EXPAND * (centroid - worst), 0.0, 1.0)
                fe = math.inf if self._collides(xe) else (yield [xe])[0]
                if fe < fr:
                    self._verts[-1], self._fs[-1] = xe, fe
                else:
                    self._verts[-1], self._fs[-1] = xr, fr
            elif fr < self._fs[-2]:
                self._verts[-1], self._fs[-1] = xr, fr
            else:
                if fr < f_worst:
                    xc = np.clip(centroid + CONTRACT * (xr - centroid), 0.0, 1.0)
                    fc = math.inf if self._collides(xc) else (yield [xc])[0]
                    accepted = fc <= fr
                else:
                    xc = np.clip(centroid - CONTRACT * (centroid - worst), 0.0, 1.0)
                    fc = math.inf if self._collides(xc) else (yield [xc])[0]
                    accepted = fc < f_worst
                if accepted:
                    self._verts[-1], self._fs[-1] = xc, fc
                else:
                    self.events.append("shrink")
                    best = self._verts[0]
                    shrunk = [np.clip(best + SHRINK * (v - best), 0.0, 1.0) for v in self._verts[1:]]
                    new_fs = yield shrunk
                    self._verts = [best] + shrunk
                    self._fs = [self._fs[0]] + list(new_fs)


def reference_nm_minimize(fn, x0: np.ndarray, edge: float, max_iters: int):
    """One ListSimplexSearch driven alone, one fn call per point, until
    max_iters or a zero value spread; returns (best_x, best_f, iterations,
    steps)."""
    search = ListSimplexSearch(np.asarray(x0, dtype=float), edge=edge)
    steps = 0
    while search.iterations < max_iters:
        search.advance([fn(x) for x in search.pending()])
        steps += 1
        if search.iterations > 0 and search.value_spread() <= 0.0:
            break
    return search.best_x, search.best_f, search.iterations, steps


def dense_believer_posterior(model: GPModel, space: SearchSpace, fantasies: np.ndarray, query: np.ndarray):
    """Kriging-believer posterior rebuilt by dense refits: each fantasy row in
    turn joins the training set with the refit's posterior mean there as its
    value; the length scale, signal variance, jitter and prior mean stay the
    model's. Returns (mean, variance) at the query rows of the last refit."""
    num, cat = space.numeric_indices, space.categorical_indices

    def kern(a, b):
        sq = ((a[:, None, num] - b[None, :, num]) ** 2).sum(axis=-1)
        sq = sq + (a[:, None, cat] != b[None, :, cat]).sum(axis=-1)
        return model.signal_var * np.exp(-sq / (2 * model.length_scale**2))

    def refit(x, y, q):
        a_mat = kern(x, x) + model.jitter * np.eye(len(x))
        k_star = kern(q, x)
        mean = model.prior_mean + k_star @ np.linalg.solve(a_mat, y)
        var = model.signal_var - np.einsum("ij,ij->i", k_star, np.linalg.solve(a_mat, k_star.T).T)
        return mean, np.maximum(var, 0.0)

    x = model.train_x
    y = (kern(x, x) + model.jitter * np.eye(len(x))) @ model._alpha  # centered targets of the fit
    for row in fantasies:
        mean, _ = refit(x, y, row[None, :])
        x = np.vstack([x, row])
        y = np.append(y, mean[0] - model.prior_mean)
    return refit(x, y, query)


def reference_propose(model: GPModel, space: SearchSpace, m: int, kappa: float, rng, seen, restarts: int):
    """Bayes proposals with each refinement simplex run alone over a one-row
    LCB of encode(decode(...)). The first pick follows the (LCB, rank) order
    under the model; each later one the order under dense_believer_posterior
    with every earlier pick as a fantasy. Returns (proposals, steps per
    restart)."""

    def lcb_of(encoded: np.ndarray) -> float:
        mean, var = model.posterior_many(encoded[None, :])
        return float(mean[0] - kappa * math.sqrt(var[0]))

    candidates = lhs_sample(space, SampleRequest(CANDIDATE_COUNT, int(rng.integers(0, 2**63))))
    encoded = np.stack([encode(space, p) for p in candidates])
    mean, var = model.posterior_many(encoded)
    lcb = mean - kappa * np.sqrt(var)
    order = np.argsort(lcb, kind="stable")
    # (LCB under the model, rank, point, encoded row)
    pool = [(float(lcb[i]), rank, candidates[i], encoded[i]) for rank, i in enumerate(order)]
    cont = space.continuous_indices
    steps = []
    if cont:
        for extra, i in enumerate(order[:restarts]):
            template = encoded[i].copy()

            def refined_lcb(u: np.ndarray) -> float:
                merged = template.copy()
                merged[cont] = u
                return lcb_of(encode(space, decode(space, merged)))

            best_u, best_f, _, n_steps = reference_nm_minimize(
                refined_lcb, template[cont], edge=0.1, max_iters=REFINE_MAX_ITERS
            )
            steps.append(n_steps)
            merged = template.copy()
            merged[cont] = best_u
            point = decode(space, merged)
            pool.append((best_f, -restarts + extra, point, encode(space, point)))

    rows = np.stack([row for _, _, _, row in pool])
    scores = [f for f, _, _, _ in pool]
    chosen, picks = [], []
    used = set(seen)
    while len(chosen) < m:
        if picks:
            mean, var = dense_believer_posterior(model, space, rows[picks], rows)
            scores = list(mean - kappa * np.sqrt(var))
        for i in sorted(range(len(pool)), key=lambda i: (scores[i], pool[i][1])):
            key = canonical_key(space, pool[i][2])
            if key not in used:
                break
        else:
            break
        used.add(key)
        chosen.append((pool[i][2], key))
        picks.append(i)
    return chosen, steps


class ScriptedSolver(Solver):
    """Asks a fixed script of point batches; records everything it is told."""

    def __init__(self, batches: list[list[Point]]):
        self._batches = list(batches)
        self.told: list[TrialRecord] = []

    def ask(self, max_points: int) -> list[Point]:
        if not self._batches:
            return []
        batch = self._batches.pop(0)
        return batch[:max_points]

    def tell(self, records) -> None:
        self.told.extend(records)

    def is_done(self) -> bool:
        return not self._batches


class RecordingSolver(Solver):
    """Wraps a solver and logs its cumulative tell stream."""

    def __init__(self, inner: Solver):
        self._inner = inner
        self.told: list[TrialRecord] = []

    def ask(self, max_points: int) -> list[Point]:
        return self._inner.ask(max_points)

    def tell(self, records) -> None:
        self.told.extend(records)
        self._inner.tell(records)

    def is_done(self) -> bool:
        return self._inner.is_done()


def counted(fn):
    """Wrap an objective callable with an invocation counter."""
    calls: list[int] = []

    def wrapper(point, eval_id):
        calls.append(eval_id)
        return fn(point, eval_id)

    wrapper.calls = calls
    return wrapper
