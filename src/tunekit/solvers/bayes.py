"""Gaussian-process surrogate search with a lower-confidence-bound acquisition.

The surrogate is a squared-exponential kernel over the mixed distance metric
(Euclidean on encoded numeric channels, 0/1 mismatch on categorical ones).
Hyperparameters come from data heuristics: length scale = median pairwise
distance, signal variance = sample variance of the outputs, noise variance =
1e-6 of the signal variance. Proposals minimize LCB(x) = mu(x) - kappa *
sigma(x) over a pool: a fresh LHS candidate set plus its best candidates
refined by a short simplex search on the continuous channels. The refinement
simplexes run in lockstep: each step snaps the pending points of all of them
to valid points and scores them with one posterior call.

The fit factors K + jitter I = L L^T with np.linalg.cholesky, raising the
jitter tenfold while the factorization fails, and holds the inverse factor
L^-1 (GPML Alg. 2.1 computes the variance from v = L^-1 k*). It takes the
inverse block by block, about a third of the flops of inverting L whole.
With it, each query row's variance is one vector-matrix product, so the
model needs numpy alone.

A batch is chosen greedily with the "Kriging believer" of Ginsbourger, Le
Riche & Carraro (2010), "Kriging is well-suited to parallelize optimization":
each pick joins the GP as a fantasy observation whose value is its posterior
mean. That leaves the mean unchanged and shrinks sigma near the pick, so the
next pick is drawn away from it instead of crowding the same basin. A fantasy
extends the Cholesky factor by one row (the structure of GPML Alg. 2.1), an
O(n^2) update of the pool's variances instead of an O(n^3) refit. The pool and
its refinement are built once per batch, not again after each fantasy, and
the pool's kernel rows k(pool, X) are computed once: the candidates are
scored from them, and the believer conditions on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cache import CacheKey, row_key
from ..manager import Solver, check_param
from ..sampling import SampleRequest, lhs_design, lhs_encoded, lhs_points
from ..space import Point, SearchSpace, decode, mixed_sqdist_matrix, snap_encoded
from ..trials import TrialRecord
from .neldermead import SimplexSearch, nm_minimize_many

JITTER_CEILING_FACTOR = 1e-2
NOISE_FACTOR = 1e-6
CANDIDATE_COUNT = 256
REFINE_MAX_ITERS = 50
TRIL_LEAF = 48


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
        check_param("init", self.init, integer=True, minimum=2)
        check_param("batch", self.batch, integer=True, minimum=1)
        check_param("kappa", self.kappa, integer=False, minimum=0)
        check_param("cap", self.cap, integer=True, minimum=self.init)
        check_param("restarts", self.restarts, integer=True, minimum=0)


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


def tril_inverse(lower: np.ndarray) -> np.ndarray:
    """The inverse of a lower-triangular matrix, itself lower-triangular with
    exact zeros above the diagonal.

    Blocked: [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]], with the
    two half-size inverses taken the same way and np.linalg.inv only at
    leaves of at most TRIL_LEAF rows. About 2n^3/3 flops against 2n^3 for
    np.linalg.inv of the whole matrix."""
    n = len(lower)
    if n <= TRIL_LEAF:
        return np.tril(np.linalg.inv(lower))
    h = n // 2
    out = np.zeros_like(lower)
    top = out[:h, :h] = tril_inverse(lower[:h, :h])
    bottom = out[h:, h:] = tril_inverse(lower[h:, h:])
    out[h:, :h] = -(bottom @ lower[h:, :h]) @ top
    return out


class GPModel:
    def __init__(
        self,
        space: SearchSpace,
        train_x: np.ndarray,
        train_y: np.ndarray,
        length_scale: float,
        signal_var: float,
        noise_var: float,
        train_sqdist: np.ndarray | None = None,
    ):
        """train_sqdist, if given, is mixed_sqdist_matrix(space, train_x,
        train_x); the fit overwrites it with the kernel matrix. noise_var
        must be positive: it is the first jitter tried, and each failed
        factorization multiplies the jitter by ten."""
        if not noise_var > 0.0:
            raise ValueError(f"noise_var must be positive, got {noise_var}")
        self.space = space
        self.train_x = train_x
        self.prior_mean = float(np.mean(train_y))
        self.length_scale = length_scale
        self.signal_var = signal_var
        self.noise_var = noise_var
        centered = train_y - self.prior_mean

        if train_sqdist is None:
            train_sqdist = mixed_sqdist_matrix(space, train_x, train_x)
        k_train = self._kernel_of(train_sqdist)
        diagonal = k_train.diagonal().copy()
        jitter = noise_var
        ceiling = JITTER_CEILING_FACTOR * signal_var
        while True:
            k_train.flat[:: len(train_x) + 1] = diagonal + jitter
            try:
                chol = np.linalg.cholesky(k_train)
                break
            except np.linalg.LinAlgError:
                jitter *= 10
                if jitter > ceiling:
                    raise GPFitError("kernel matrix factorization failed") from None
        self.jitter = jitter
        # L^-T, upper-triangular: row vector k @ it is (L^-1 k)^T
        self._inv_chol_t = np.ascontiguousarray(tril_inverse(chol).T)
        self._alpha = self._inv_chol_t @ (centered @ self._inv_chol_t)

    def _kernel_of(self, sq: np.ndarray) -> np.ndarray:
        """The kernel of squared distances, computed in place in sq."""
        sq /= -(2.0 * self.length_scale**2)
        np.exp(sq, out=sq)
        sq *= self.signal_var
        return sq

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._kernel_of(mixed_sqdist_matrix(self.space, a, b))

    def kernel_rows(self, query: np.ndarray) -> np.ndarray:
        """k(query, X): one row per encoded query row, one column per
        training row. Each entry has the same bits whatever the batch."""
        return self._kernel(query, self.train_x)

    def posterior_many(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mean, variance) arrays for encoded query rows; variance clamped >= 0."""
        return self.posterior_of_kernel_rows(self.kernel_rows(query))

    def posterior_of_kernel_rows(self, k_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """posterior_many of the query rows whose kernel_rows are k_rows.

        The variance is signal_var - |v|^2 with v = L^-1 k(x, X) (GPML Alg.
        2.1), taken through the inverse factor held from the fit. Each row's
        result has the same bits whatever the batch size, so a batched call
        scores a point exactly as a one-row call would. So every row gets
        its own products: one dot product with alpha for the mean, one
        vector-matrix product with the inverse factor for v and one dot
        product for |v|^2. A single (m, n) @ (n, n) product would let BLAS
        block and order its sums by the number of rows m, and so change a
        row's last bits with m (test_batched_posterior_rows_equal_one_row_calls
        checks both the mean and the variance)."""
        k_star = k_rows[:, None, :]
        mean = self.prior_mean + (k_star @ self._alpha[:, None])[:, 0, 0]
        v = k_star @ self._inv_chol_t
        var = self.signal_var - (v @ v.transpose(0, 2, 1))[:, 0, 0]
        return mean, np.maximum(var, 0.0)


def fit_gp(space: SearchSpace, records: Sequence[TrialRecord], cap: int = 300) -> GPModel:
    """Fit a surrogate on the ok records (failures excluded), trimming to cap."""
    ok = [r for r in records if r.ok]
    if len(ok) < 2:
        raise GPFitError(f"need at least 2 ok records, got {len(ok)}")
    ok = trim_records(ok, cap)
    train_x = np.stack([r.encoded for r in ok])
    train_y = np.array([r.objective for r in ok])

    sq = mixed_sqdist_matrix(space, train_x, train_x)
    pairwise = np.sqrt(sq[np.triu_indices(len(ok), k=1)])
    length_scale = float(np.median(pairwise))
    if length_scale == 0.0:
        length_scale = 1.0
    signal_var = float(np.var(train_y, ddof=1))
    if signal_var == 0.0:
        signal_var = 1.0
    return GPModel(space, train_x, train_y, length_scale, signal_var, NOISE_FACTOR * signal_var, sq)


class BelieverVariance:
    """Posterior variances over fixed encoded rows as Kriging-believer
    fantasies join the GP.

    A fantasy at rows[b] is an observation there with the model's jitter as
    its noise. Conditioning on it subtracts u(x)^2 from every variance, with
    u(x) = cov(x, b) / sqrt(cov(b, b) + jitter) and
    cov(x, b) = k(x, b) - k(x, X) w - sum over earlier fantasies of u'(x) u'(b),
    where w = (K + jitter I)^-1 k(X, b) = L^-T (L^-1 k(X, b)): two O(n^2)
    products with the held inverse factor per fantasy, on top of
    k_rows = k(rows, X), which the caller passes in (propose has it from
    scoring the pool). The fantasy's value is the posterior mean, so the
    mean stays as it was."""

    def __init__(self, model: GPModel, rows: np.ndarray, k_rows: np.ndarray, var: np.ndarray):
        self._model = model
        self._rows = rows
        self._k_rows = k_rows
        self._u: list[np.ndarray] = []
        self.var = var

    def add(self, b: int) -> None:
        """Condition on a fantasy observation at rows[b]."""
        model = self._model
        w = model._inv_chol_t @ (self._k_rows[b] @ model._inv_chol_t)
        cov = model._kernel(self._rows, self._rows[b : b + 1])[:, 0] - self._k_rows @ w
        for u in self._u:
            cov -= u * u[b]
        u = cov / np.sqrt(max(cov[b], 0.0) + model.jitter)
        self._u.append(u)
        self.var = np.maximum(self.var - u * u, 0.0)


def propose(
    model: GPModel,
    space: SearchSpace,
    m: int,
    kappa: float,
    rng: np.random.Generator,
    seen: set[CacheKey],
    restarts: int,
) -> list[tuple[Point, CacheKey]]:
    """Up to m distinct unseen points under LCB, with their keys.

    The pool is a fresh LHS candidate set plus its `restarts` best candidates
    refined by simplex searches, run in lockstep. Each search moves the
    continuous channels of its candidate's encoded row and keeps the others;
    each step snaps every pending row of every search as decode then encode
    would and scores them all with one posterior call. The refined points are
    scored with one more call. Picks follow the (LCB, rank) order, rank being
    a candidate's place in the first LCB order and the refined points ranking
    ahead of all candidates; after each pick the pool's variances are
    conditioned on it as a believer fantasy, and the LCB order is taken
    again. Pool points are keyed by their encoded rows, and a Point is built
    only for a pick."""
    design = lhs_design(space, SampleRequest(CANDIDATE_COUNT, int(rng.integers(0, 2**63))))
    cont = space.continuous_indices
    n_design = len(design)
    n_refined = min(restarts, n_design) if cont else 0
    # one array holds the whole pool's kernel rows; the refined rows' entries
    # are computed for zero rows here and replaced once those rows are known
    rows = np.zeros((n_design + n_refined, len(space.variables)))
    rows[:n_design] = lhs_encoded(space, design)
    k_rows = model.kernel_rows(rows)
    mean, var = model.posterior_of_kernel_rows(k_rows[:n_design])
    order = np.argsort(mean - kappa * np.sqrt(var), kind="stable")
    ranks = np.empty(len(order), dtype=int)
    ranks[order] = np.arange(len(order))
    searches = [SimplexSearch(row, edge=0.1, channels=cont) for row in rows[order[:n_refined]]]

    if searches:

        def refined_lcb(query: np.ndarray) -> np.ndarray:
            mean, var = model.posterior_many(snap_encoded(space, query))
            return mean - kappa * np.sqrt(var)

        nm_minimize_many(refined_lcb, searches, max_iters=REFINE_MAX_ITERS)
        rows[n_design:] = snap_encoded(space, np.array([s.best_x for s in searches]))
        k_rows[n_design:] = model.kernel_rows(rows[n_design:])
        refined_mean, refined_var = model.posterior_of_kernel_rows(k_rows[n_design:])
        mean = np.concatenate([mean, refined_mean])
        var = np.concatenate([var, refined_var])
        ranks = np.concatenate([ranks, -restarts + np.arange(n_refined)])

    believer = BelieverVariance(model, rows, k_rows, var) if m > 1 else None
    considered = np.zeros(len(rows), dtype=bool)
    chosen: list[tuple[Point, CacheKey]] = []
    used: set[CacheKey] = set(seen)
    while len(chosen) < m:
        lcb = mean - kappa * np.sqrt(var)
        for i in np.lexsort((ranks, lcb)):
            if considered[i]:
                continue
            considered[i] = True
            key = row_key(rows[i])
            if key not in used:
                break
        else:
            break  # every pool point is taken or seen
        used.add(key)
        if i < len(design):
            point = lhs_points(space, design[i : i + 1])[0]
        else:
            point = decode(space, searches[i - len(design)].best_x)
        chosen.append((point, key))
        if len(chosen) < m:
            believer.add(i)
            var = believer.var
    return chosen


class BayesSearch(Solver):
    def __init__(self, space: SearchSpace, seed: int, config: BayesConfig | None = None):
        self._space = space
        self.config = config or BayesConfig()
        self._rng = np.random.default_rng(seed)
        self._records: dict[CacheKey, TrialRecord] = {}
        self._seen: set[CacheKey] = set()
        self._initialized = False
        self.model: GPModel | None = None

    def _lhs_points(self, n: int) -> list[Point]:
        design = lhs_design(self._space, SampleRequest(n, int(self._rng.integers(0, 2**63))))
        self._seen.update(row_key(row) for row in lhs_encoded(self._space, design))
        return lhs_points(self._space, design)

    def ask(self, max_points: int) -> list[Point]:
        if max_points <= 0:
            return []
        if not self._initialized:
            self._initialized = True
            return self._lhs_points(min(self.config.init, max_points))
        m = min(self.config.batch, max_points)
        try:
            self.model = fit_gp(self._space, list(self._records.values()), self.config.cap)
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
            self._records.setdefault(rec.key, rec)
            self._seen.add(rec.key)
