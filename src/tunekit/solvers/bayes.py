"""Gaussian-process surrogate search with a lower-confidence-bound acquisition.

The surrogate is a squared-exponential kernel over the mixed distance metric
(Euclidean on encoded numeric channels, 0/1 mismatch on categorical ones).
Hyperparameters come from data heuristics: length scale = median pairwise
distance, signal variance = sample variance of the outputs, noise variance =
1e-6 of the signal variance. Proposals minimize LCB(x) = mu(x) - kappa *
sigma(x) over a fresh LHS candidate set, with the best candidates refined by
a short simplex search on the continuous channels. The refinement simplexes
run in lockstep: each step snaps the pending points of all of them to valid
points and scores them with one posterior call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg

from ..cache import CacheKey, canonical_key
from ..manager import Solver
from ..sampling import SampleRequest, lhs_sample
from ..space import Point, SearchSpace, decode, encode, mixed_sqdist_matrix, snap_encoded
from ..trials import TrialRecord
from .neldermead import nm_minimize_many

JITTER_CEILING_FACTOR = 1e-2
NOISE_FACTOR = 1e-6
CANDIDATE_COUNT = 256
REFINE_MAX_ITERS = 50


class GPFitError(RuntimeError):
    """Surrogate could not be fit (no usable records or factorization failure)."""


@dataclass(frozen=True)
class BayesConfig:
    init: int = 10
    batch: int = 5
    kappa: float = 2.0
    cap: int = 300
    restarts: int = 3

    def __post_init__(self) -> None:
        if self.init < 2:
            raise ValueError("init size must be >= 2")
        if self.cap < self.init:
            raise ValueError("cap must be >= init size")
        if self.batch < 1 or self.restarts < 0:
            raise ValueError("batch must be >= 1 and restarts >= 0")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")


def trim_records(records: Sequence[TrialRecord], cap: int) -> list[TrialRecord]:
    """Keep at most cap records: the best half by objective, then the most
    recent to fill; result ordered by eval_id."""
    records = list(records)
    if len(records) <= cap:
        return records
    by_objective = sorted(records, key=lambda r: (r.objective, r.eval_id))
    keep = {r.eval_id: r for r in by_objective[: cap // 2]}
    for rec in sorted(records, key=lambda r: -r.eval_id):
        if len(keep) >= cap:
            break
        keep.setdefault(rec.eval_id, rec)
    return sorted(keep.values(), key=lambda r: r.eval_id)


class GPModel:
    def __init__(
        self,
        space: SearchSpace,
        train_x: np.ndarray,
        train_y: np.ndarray,
        length_scale: float,
        signal_var: float,
        noise_var: float,
    ):
        self.space = space
        self.train_x = train_x
        self.prior_mean = float(np.mean(train_y))
        self.length_scale = length_scale
        self.signal_var = signal_var
        self.noise_var = noise_var
        centered = train_y - self.prior_mean

        k_train = self._kernel(train_x, train_x)
        jitter = noise_var
        ceiling = JITTER_CEILING_FACTOR * signal_var
        while True:
            try:
                self._factor = scipy.linalg.cho_factor(
                    k_train + jitter * np.eye(len(train_x)), lower=True
                )
                break
            except np.linalg.LinAlgError:
                jitter *= 10
                if jitter > ceiling:
                    raise GPFitError("kernel matrix factorization failed") from None
        self.jitter = jitter
        self._alpha = scipy.linalg.cho_solve(self._factor, centered)

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = mixed_sqdist_matrix(self.space, a, b)
        return self.signal_var * np.exp(-sq / (2.0 * self.length_scale**2))

    def posterior_many(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mean, variance) arrays for encoded query rows; variance clamped >= 0.

        Each row's result has the same bits whatever the batch size, so a
        batched call scores a point exactly as a one-row call would. The mean
        therefore takes one dot product per row: a matrix-vector product
        `k_star @ alpha` changes its summation order, and so its last bits,
        with the number of rows."""
        k_star = self._kernel(query, self.train_x)
        mean = self.prior_mean + (k_star[:, None, :] @ self._alpha[:, None])[:, 0, 0]
        solved = scipy.linalg.cho_solve(self._factor, k_star.T)
        var = self.signal_var - np.einsum("ij,ji->i", k_star, solved)
        return mean, np.maximum(var, 0.0)

    def posterior(self, p: Point | np.ndarray) -> tuple[float, float]:
        x = encode(self.space, p) if isinstance(p, Point) else np.asarray(p, dtype=float)
        mean, var = self.posterior_many(x[None, :])
        return float(mean[0]), float(var[0])


def fit_gp(
    space: SearchSpace,
    records: Sequence[TrialRecord],
    cap: int = 300,
    rows: Mapping[CacheKey, np.ndarray] | None = None,
) -> GPModel:
    """Fit a surrogate on the ok records (failures excluded), trimming to cap.

    rows maps each record's key to its encoded point; without it the kept
    records are encoded here."""
    ok = [r for r in records if r.ok]
    if len(ok) < 2:
        raise GPFitError(f"need at least 2 ok records, got {len(ok)}")
    ok = trim_records(ok, cap)
    if rows is None:
        train_x = np.stack([encode(space, r.point) for r in ok])
    else:
        train_x = np.stack([rows[r.key] for r in ok])
    train_y = np.array([r.objective for r in ok])

    sq = mixed_sqdist_matrix(space, train_x, train_x)
    pairwise = np.sqrt(sq[np.triu_indices(len(ok), k=1)])
    length_scale = float(np.median(pairwise))
    if length_scale == 0.0:
        length_scale = 1.0
    signal_var = float(np.var(train_y, ddof=1))
    if signal_var == 0.0:
        signal_var = 1.0
    return GPModel(space, train_x, train_y, length_scale, signal_var, NOISE_FACTOR * signal_var)


def propose(
    model: GPModel,
    space: SearchSpace,
    m: int,
    kappa: float,
    rng: np.random.Generator,
    seen: set[CacheKey],
    restarts: int,
) -> list[tuple[Point, CacheKey]]:
    """m best distinct unseen points under LCB, with their keys, over a fresh
    LHS candidate set. The `restarts` best candidates are refined by simplex
    searches on their continuous channels, run in lockstep: each step snaps
    every pending point of every search as decode then encode would and
    scores them all with one posterior call."""
    candidates = lhs_sample(space, SampleRequest(CANDIDATE_COUNT, int(rng.integers(0, 2**63))))
    encoded = np.stack([encode(space, p) for p in candidates])
    mean, var = model.posterior_many(encoded)
    lcb = mean - kappa * np.sqrt(var)
    order = np.argsort(lcb, kind="stable")

    pool: list[tuple[float, int, Point]] = [
        (float(lcb[i]), rank, candidates[i]) for rank, i in enumerate(order)
    ]
    cont = space.continuous_indices
    if cont:
        templates = encoded[order[:restarts]]

        def refined_lcb(rows: np.ndarray, owners: np.ndarray) -> np.ndarray:
            merged = templates[owners]
            merged[:, cont] = rows
            mean, var = model.posterior_many(snap_encoded(space, merged))
            return mean - kappa * np.sqrt(var)

        refined = nm_minimize_many(
            refined_lcb, templates[:, cont], edge=0.1, max_iters=REFINE_MAX_ITERS
        )
        for extra, (best_u, best_f, _) in enumerate(refined):
            merged = templates[extra].copy()
            merged[cont] = best_u
            pool.append((best_f, -restarts + extra, decode(space, merged)))

    chosen: list[tuple[Point, CacheKey]] = []
    used: set[CacheKey] = set(seen)
    for _, _, point in sorted(pool, key=lambda t: (t[0], t[1])):
        key = canonical_key(space, point)
        if key in used:
            continue
        used.add(key)
        chosen.append((point, key))
        if len(chosen) >= m:
            break
    return chosen


class BayesSearch(Solver):
    def __init__(self, space: SearchSpace, seed: int, config: BayesConfig | None = None):
        self._space = space
        self.config = config or BayesConfig()
        self._rng = np.random.default_rng(seed)
        self._records: dict[CacheKey, TrialRecord] = {}
        self._rows: dict[CacheKey, np.ndarray] = {}  # encoded points of the ok records
        self._seen: set[CacheKey] = set()
        self._initialized = False
        self.model: GPModel | None = None

    def _lhs_points(self, n: int) -> list[Point]:
        points = lhs_sample(self._space, SampleRequest(n, int(self._rng.integers(0, 2**63))))
        self._seen.update(canonical_key(self._space, p) for p in points)
        return points

    def ask(self, max_points: int) -> list[Point]:
        if max_points <= 0:
            return []
        if not self._initialized:
            self._initialized = True
            return self._lhs_points(min(self.config.init, max_points))
        m = min(self.config.batch, max_points)
        try:
            self.model = fit_gp(
                self._space, list(self._records.values()), self.config.cap, self._rows
            )
        except GPFitError:
            return self._lhs_points(m)
        proposals = propose(
            self.model, self._space, m, self.config.kappa, self._rng, self._seen, self.config.restarts
        )
        if not proposals:  # candidate set exhausted against seen points
            return self._lhs_points(m)
        self._seen.update(key for _, key in proposals)
        return [p for p, _ in proposals]

    def tell(self, records: Sequence[TrialRecord]) -> None:
        for rec in records:
            if rec.key not in self._records:
                self._records[rec.key] = rec
                if rec.ok:
                    self._rows[rec.key] = encode(self._space, rec.point)
            self._seen.add(rec.key)
