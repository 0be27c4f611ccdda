"""Built-in trainable learner: k-nearest-neighbors misclassification on a
held-out validation partition. Tunables: neighbor count k (integer), vote
weighting (categorical: uniform/inverse), Minkowski exponent (continuous)."""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

import numpy as np

from ..space import CategoricalVariable, ContinuousVariable, IntegerVariable, Point, SearchSpace
from ..trials import EvaluationFailed
from .data import Dataset, Partition, PartitionSpec, partition
from .functions import SpaceMismatchError

INVERSE_EPS = 1e-12
# Bytes of neighbour lists one shared scorer keeps over all powers: about
# 530 powers of a 450-row validation partition at k_cap 31 with uint8 labels.
NEIGHBOUR_CACHE_BYTES = 64 << 20
# Bytes of the float64 distance plane of one block of validation rows: a
# power's neighbour lists are computed one such block at a time.
BLOCK_BYTES = 1 << 20


def _pairwise_sum(term, lo: int, n: int, plane) -> np.ndarray:
    """term(lo, out) + ... + term(lo + n - 1, out), added in the order numpy's
    pairwise summation adds a contiguous run of n values: in sequence from 0
    below 8, in eight interleaved partial sums up to 128, and by halves above.
    So each entry equals np.sum over the stacked terms' last axis bit for bit.

    term(j, out) writes term j into the array out and returns it. The sum
    lands in plane(0); plane(1), plane(2), ... are scratch of the same shape,
    and every addition is made in place."""
    if n < 8:
        total, scratch = plane(0), plane(1)
        total.fill(0.0)
        for j in range(lo, lo + n):
            total += term(j, scratch)
        return total
    if n <= 128:
        stop = n - n % 8
        partial = [term(lo + j, plane(j)) for j in range(8)]
        scratch = plane(8)
        for i in range(8, stop, 8):
            for j in range(8):
                partial[j] += term(lo + i + j, scratch)
        for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):  # ((0+1)+(2+3))+((4+5)+(6+7))
            partial[a] += partial[b]
        total = partial[0]
        for j in range(lo + stop, lo + n):
            total += term(j, scratch)
        return total
    half = n // 2
    half -= half % 8
    total = _pairwise_sum(term, lo, half, plane)
    total += _pairwise_sum(term, lo + half, n - half, lambda i: plane(i + 1))
    return total


def minkowski_distances(a: np.ndarray, b: np.ndarray, power: float, plane=None) -> np.ndarray:
    """(len(a), len(b)) Minkowski distances sum_j |a_j - b_j| ** power, then
    ** (1 / power), built one (len(a), len(b)) plane per feature. Equal bit
    for bit to np.sum(np.abs(a[:, None] - b[None]) ** power, axis=2) ** (1 /
    power) without its (len(a), len(b), features) temporaries.

    plane(i) gives the i-th (len(a), len(b)) float64 array to work in (see
    _pairwise_sum), and the result is plane(0); without it each is new."""
    if plane is None:
        plane = lambda i: np.empty((len(a), len(b)))  # noqa: E731

    def term(j: int, out: np.ndarray) -> np.ndarray:
        np.subtract.outer(a[:, j], b[:, j], out=out)
        np.abs(out, out=out)
        out **= power  # `**`, not np.power: it squares for power 2, as `diffs ** power` does
        return out

    total = _pairwise_sum(term, 0, a.shape[1], plane)
    total **= 1.0 / power
    return total


def _nearest(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first k columns in stable-argsort order (by distance, equal
    distances by column), and their distances, without sorting whole rows:
    every entry below the row's k-th smallest value, then the earliest
    entries equal to it, stable-sorted by distance.

    Most rows hold exactly k entries at or below their k-th smallest value
    and take them all. Only a crowded row, whose k-th smallest value is
    shared by more entries than the k have room for, counts its ties along
    the row to keep the earliest; so the cumulative count runs over those
    rows alone."""
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1 : k]
    chosen = dists <= kth
    crowded = np.flatnonzero(np.count_nonzero(chosen, axis=1) > k)
    if crowded.size:
        rows, kth_c = dists[crowded], kth[crowded]
        below, tied = rows < kth_c, rows == kth_c
        room = k - np.count_nonzero(below, axis=1)
        chosen[crowded] = below | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    cols = np.nonzero(chosen)[1].reshape(len(dists), k)  # ascending within each row
    near = np.take_along_axis(dists, cols, axis=1)
    order = np.argsort(near, axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(near, order, axis=1)


class _Scorer:
    """A train/validation pair with its labels mapped once to indices into
    the sorted training labels; a validation label absent from training maps
    to -1, which no prediction matches. Threads may share it.

    For each exact `power` it keeps every validation row's k_cap nearest
    training rows (their labels and distances), so a later evaluation with
    that power and any k <= k_cap reads the first k columns instead of
    computing distances again. This is exact: neighbours are ordered by
    (distance, training-row index), and the first k of that order are a
    prefix of the first k_cap. The kept lists never exceed
    NEIGHBOUR_CACHE_BYTES in all; the least recently used power goes first.
    Two threads that miss on one power both compute it, outside the lock,
    and keep one copy.

    A miss computes the lists one block of validation rows at a time, each
    block's (rows, n_train) distance plane within BLOCK_BYTES (at least one
    row), so its working memory is one block's planes plus the (n_val, k_cap)
    lists. A row's distances and order depend on that row alone, so the
    lists are the same bit for bit as from the whole distance matrix.
    Each thread keeps the block planes it computed in (two below 8 features,
    nine or more above) and reuses them for its later misses, so a miss
    does not allocate, and fault in, fresh planes for every block.
    Training labels are held as codes in the smallest unsigned dtype that
    holds them."""

    def __init__(self, train: Dataset, validation: Dataset, k_cap: int):
        labels = sorted(set(train.labels))
        index = {lab: i for i, lab in enumerate(labels)}
        self.n_labels = len(labels)
        self.k_cap = k_cap
        self.train_x, self.val_x = train.features, validation.features
        self.train_y = np.array(
            [index[lab] for lab in train.labels], dtype=np.min_scalar_type(max(self.n_labels - 1, 0))
        )
        self.val_y = np.array([index.get(lab, -1) for lab in validation.labels], dtype=np.intp)
        self._kept: OrderedDict[float, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._kept_bytes = 0
        self._lock = threading.Lock()
        self._local = threading.local()  # .planes: this thread's block distance planes

    def _plane(self, i: int, rows: int, step: int) -> np.ndarray:
        """The first `rows` rows of this thread's i-th (step, n_train) block plane."""
        planes = self._local.__dict__.setdefault("planes", [])
        while len(planes) <= i:
            planes.append(np.empty((step, len(self.train_x))))
        return planes[i][:rows]

    def _neighbours(self, k: int, power: float) -> tuple[np.ndarray, np.ndarray]:
        """(labels, distances) of each validation row's nearest training rows
        in neighbour order: k_cap columns, or k when k > k_cap."""
        if k <= self.k_cap:
            with self._lock:
                entry = self._kept.get(power)
                if entry is not None:
                    self._kept.move_to_end(power)
                    return entry
        width = max(k, self.k_cap)
        labels = np.empty((len(self.val_x), width), dtype=self.train_y.dtype)
        near = np.empty((len(self.val_x), width))
        step = max(1, BLOCK_BYTES // (8 * len(self.train_x)))
        for lo in range(0, len(self.val_x), step):
            block = self.val_x[lo : lo + step]
            plane = functools.partial(self._plane, rows=len(block), step=step)
            cols, near[lo : lo + step] = _nearest(minkowski_distances(block, self.train_x, power, plane), width)
            labels[lo : lo + step] = self.train_y[cols]
        entry = (labels, near)
        if k > self.k_cap:
            return entry
        for array in entry:
            array.flags.writeable = False
        size = sum(array.nbytes for array in entry)
        with self._lock:
            if power in self._kept or size > NEIGHBOUR_CACHE_BYTES:
                return entry
            while self._kept_bytes + size > NEIGHBOUR_CACHE_BYTES:
                self._kept_bytes -= sum(array.nbytes for array in self._kept.popitem(last=False)[1])
            self._kept[power] = entry
            self._kept_bytes += size
        return entry

    def error_rate(self, k: int, weight: str, power: float) -> float:
        """Misclassification rate of k-NN voting on the validation rows.

        Ties: neighbours are ordered by Minkowski distance, equal distances by
        training-row order (the earlier row is nearer); each neighbour votes 1
        (uniform) or 1 / (distance + 1e-12) (inverse), added in neighbour
        order; a tied vote goes to the label that sorts first. A validation
        label that no training row has is always an error.

        Cost: k-NN has no training step, so nothing is retrained between
        calls; only the neighbour lists of a kept power carry over. A power
        not kept computes all len(validation) * len(train) distances (one
        power per feature per pair) and partitions each row of them for its
        nearest, one block of rows at a time whose distance plane fits
        BLOCK_BYTES; every call then adds k columns of votes. These are
        block-wide numpy passes that release the GIL, so concurrent calls
        run in parallel.
        """
        n_train = len(self.train_y)
        if n_train == 0:
            raise EvaluationFailed("empty_training_partition")
        if not 1 <= k <= n_train:
            raise EvaluationFailed(f"k={k} outside [1, {n_train}]")
        if weight not in ("uniform", "inverse"):
            raise EvaluationFailed(f"unknown weight scheme {weight!r}")
        if power <= 0:
            raise EvaluationFailed(f"power must be > 0, got {power}")

        labels, near = self._neighbours(k, power)
        near = near[:, :k]
        weights = np.ones_like(near) if weight == "uniform" else 1.0 / (near + INVERSE_EPS)
        votes = np.zeros((len(self.val_y), self.n_labels))
        rows = np.arange(len(self.val_y))
        for c in range(k):  # in neighbour order: the inverse-weight sums depend on it
            votes[rows, labels[:, c]] += weights[:, c]
        errors = np.count_nonzero(votes.argmax(axis=1) != self.val_y)  # first max: smallest label
        return errors / len(self.val_y)


class KnnObjective:
    """Tuning objective over variables named k, weight, and power.

    Evaluations share one scorer, and with it the neighbour lists of every
    `power` evaluated so far: an evaluation whose exact `power` an earlier
    one used, at any k and weight, skips the distances and the partition and
    only counts votes. The lists hold the space's k upper bound of columns,
    of which each evaluation reads its first k, and together never exceed
    NEIGHBOUR_CACHE_BYTES. Values do not depend on what is kept: each equals
    the per-row scalar oracle `scalar_knn_error_rate` of tests/helpers.py on
    the same split bit for bit."""

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
        if k_var.hi > len(self.split.train):
            raise ValueError(
                f"k upper bound {k_var.hi} exceeds training rows {len(self.split.train)}"
            )
        self._scorer = _Scorer(self.split.train, self.split.validation, k_var.hi)

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
