"""Built-in trainable learner: k-nearest-neighbors misclassification on a
held-out validation partition. Tunables: neighbor count k (integer), vote
weighting (categorical: uniform/inverse), Minkowski exponent (continuous)."""

from __future__ import annotations

import numpy as np

from ..space import CategoricalVariable, ContinuousVariable, IntegerVariable, Point, SearchSpace
from ..trials import EvaluationFailed
from .data import Dataset, Partition, PartitionSpec, partition
from .functions import SpaceMismatchError

INVERSE_EPS = 1e-12


def _pairwise_sum(term, lo: int, n: int, shape: tuple[int, ...]) -> np.ndarray:
    """term(lo) + ... + term(lo + n - 1), added in the order numpy's pairwise
    summation adds a contiguous run of n values: in sequence from 0 below 8,
    in eight interleaved partial sums up to 128, and by halves above. So each
    entry equals np.sum over the stacked terms' last axis bit for bit."""
    if n < 8:
        total = np.zeros(shape)
        for j in range(lo, lo + n):
            total += term(j)
        return total
    if n <= 128:
        stop = n - n % 8
        partial = [term(lo + j) for j in range(8)]
        for i in range(8, stop, 8):
            for j in range(8):
                partial[j] += term(lo + i + j)
        total = ((partial[0] + partial[1]) + (partial[2] + partial[3])) + (
            (partial[4] + partial[5]) + (partial[6] + partial[7])
        )
        for j in range(lo + stop, lo + n):
            total += term(j)
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(term, lo, half, shape) + _pairwise_sum(term, lo + half, n - half, shape)


def minkowski_distances(a: np.ndarray, b: np.ndarray, power: float) -> np.ndarray:
    """(len(a), len(b)) Minkowski distances sum_j |a_j - b_j| ** power, then
    ** (1 / power), built one (len(a), len(b)) plane per feature. Equal bit
    for bit to np.sum(np.abs(a[:, None] - b[None]) ** power, axis=2) ** (1 /
    power) without its (len(a), len(b), features) temporaries."""

    def term(j: int) -> np.ndarray:
        plane = np.subtract.outer(a[:, j], b[:, j])
        np.abs(plane, out=plane)
        plane **= power  # `**`, not np.power: it squares for power 2, as `diffs ** power` does
        return plane

    total = _pairwise_sum(term, 0, a.shape[1], (len(a), len(b)))
    total **= 1.0 / power
    return total


def _nearest(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first k columns in stable-argsort order (by distance, equal
    distances by column), and their distances, without sorting whole rows:
    every entry below the row's k-th smallest value, then the earliest
    entries equal to it, stable-sorted by distance."""
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1 : k]
    below = dists < kth
    tied = dists == kth
    room = k - np.count_nonzero(below, axis=1)
    chosen = below | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    cols = np.nonzero(chosen)[1].reshape(len(dists), k)  # ascending within each row
    near = np.take_along_axis(dists, cols, axis=1)
    order = np.argsort(near, axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(near, order, axis=1)


class _Scorer:
    """A train/validation pair with its labels mapped once to indices into
    the sorted training labels; a validation label absent from training maps
    to -1, which no prediction matches. Read-only, so threads may share it."""

    def __init__(self, train: Dataset, validation: Dataset):
        labels = sorted(set(train.labels))
        index = {lab: i for i, lab in enumerate(labels)}
        self.n_labels = len(labels)
        self.train_x, self.val_x = train.features, validation.features
        self.train_y = np.array([index[lab] for lab in train.labels], dtype=np.intp)
        self.val_y = np.array([index.get(lab, -1) for lab in validation.labels], dtype=np.intp)

    def error_rate(self, k: int, weight: str, power: float) -> float:
        n_train = len(self.train_y)
        if n_train == 0:
            raise EvaluationFailed("empty_training_partition")
        if not 1 <= k <= n_train:
            raise EvaluationFailed(f"k={k} outside [1, {n_train}]")
        if weight not in ("uniform", "inverse"):
            raise EvaluationFailed(f"unknown weight scheme {weight!r}")
        if power <= 0:
            raise EvaluationFailed(f"power must be > 0, got {power}")

        cols, near = _nearest(minkowski_distances(self.val_x, self.train_x, power), k)
        weights = np.ones_like(near) if weight == "uniform" else 1.0 / (near + INVERSE_EPS)
        votes = np.zeros((len(self.val_y), self.n_labels))
        rows = np.arange(len(self.val_y))
        for c in range(k):  # in neighbour order: the inverse-weight sums depend on it
            votes[rows, self.train_y[cols[:, c]]] += weights[:, c]
        errors = np.count_nonzero(votes.argmax(axis=1) != self.val_y)  # first max: smallest label
        return errors / len(self.val_y)


def knn_error_rate(
    train: Dataset,
    validation: Dataset,
    k: int,
    weight: str = "uniform",
    power: float = 2.0,
) -> float:
    """Misclassification rate of k-NN voting on the validation rows.

    Ties: neighbours are ordered by Minkowski distance, equal distances by
    training-row order (the earlier row is nearer); each neighbour votes 1
    (uniform) or 1 / (distance + 1e-12) (inverse), added in neighbour order;
    a tied vote goes to the label that sorts first. A validation label that
    no training row has is always an error.

    Cost: k-NN has no training step, so nothing is retrained or carried over
    between calls. Each call computes all len(validation) * len(train)
    distances (one power per feature per pair), partitions each row of them
    for its k nearest, and adds k columns of votes, in whole-array numpy
    passes that release the GIL, so concurrent calls run in parallel.
    """
    return _Scorer(train, validation).error_rate(k, weight, power)


class KnnObjective:
    """Tuning objective over variables named k, weight, and power."""

    def __init__(self, space: SearchSpace, dataset: Dataset, spec: PartitionSpec | None = None):
        for name, kind in (("k", IntegerVariable), ("weight", CategoricalVariable), ("power", ContinuousVariable)):
            if name not in space.names or not isinstance(space.variables[space.index_of(name)], kind):
                raise SpaceMismatchError(f"knn needs a variable {name!r} of type {kind.__name__}")
        self._k_idx, self._weight_idx, self._power_idx = map(space.index_of, ("k", "weight", "power"))
        k_var, weight_var, power_var = (space.variables[i] for i in (self._k_idx, self._weight_idx, self._power_idx))
        if k_var.lo < 1:
            raise SpaceMismatchError(f"knn variable 'k' needs a lower bound >= 1, got {k_var.lo}")
        if not set(weight_var.levels) <= {"uniform", "inverse"}:
            raise SpaceMismatchError(f"knn variable 'weight' has levels {weight_var.levels}; it takes uniform, inverse")
        if power_var.lo <= 0:
            raise SpaceMismatchError(f"knn variable 'power' needs a lower bound > 0, got {power_var.lo}")
        self.space = space
        self.split: Partition = partition(dataset, spec or PartitionSpec())
        self._scorer = _Scorer(self.split.train, self.split.validation)
        if k_var.hi > len(self.split.train):
            raise ValueError(
                f"k upper bound {k_var.hi} exceeds training rows {len(self.split.train)}"
            )

    def __call__(self, p: Point, eval_id: int = 0) -> float:
        return self._scorer.error_rate(
            k=int(p.values[self._k_idx]),
            weight=str(p.values[self._weight_idx]),
            power=float(p.values[self._power_idx]),
        )


def default_knn_space(train_rows: int) -> SearchSpace:
    return SearchSpace(
        [
            IntegerVariable("k", 1, min(31, train_rows)),
            CategoricalVariable("weight", ("uniform", "inverse")),
            ContinuousVariable("power", 0.5, 4.0),
        ]
    )
