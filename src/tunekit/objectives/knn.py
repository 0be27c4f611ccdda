"""Built-in trainable learner: k-nearest-neighbors misclassification on a
held-out validation partition. Tunables: neighbor count k (integer), vote
weighting (categorical: uniform/inverse), Minkowski exponent (continuous).

A power's neighbour lists are found by filter and refine: a float32 screen
of all training rows bounds each pair's Minkowski sum, and exact float64
distances are taken only for the columns the screen cannot rule out (see
_Scorer._screen_bound). The lists equal those of the whole float64 distance
matrix bit for bit."""

from __future__ import annotations

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
# Bytes of a float64 distance plane of one block of validation rows: a
# power's neighbour lists are computed one block of BLOCK_BYTES // (8 *
# n_train) rows at a time, screened in two float32 planes of half this each.
BLOCK_BYTES = 1 << 20
# Screened candidates each row keeps beyond the k it needs, so that columns
# that tie or nearly tie at the k-th distance still fit.
SCREEN_EXTRA = 8
# Units of float32 rounding per feature in the screen's relative slack: they
# cover a float32 `pow` within 8 ulps, the sequential float32 sum, and the
# float64 rounding of the bound itself (see _Scorer._screen_bound).
SCREEN_SLACK = 16
_U32 = 2.0**-24  # float32 unit roundoff
_TINY32 = 2.0**-149  # the smallest float32 subnormal
_LOG_RANGE32 = 104.0  # above |ln x| for every nonzero float32 x


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


def _minkowski(diff, features: int, power: float, plane) -> np.ndarray:
    """sum_j |diff_j| ** power, then ** (1 / power), where diff(j, out) writes
    feature j's differences into out; summed as _pairwise_sum sums."""

    def term(j: int, out: np.ndarray) -> np.ndarray:
        diff(j, out)
        np.abs(out, out=out)
        out **= power  # `**`, not np.power: it squares for power 2, as `diffs ** power` does
        return out

    total = _pairwise_sum(term, 0, features, plane)
    total **= 1.0 / power
    return total


def _fresh_planes(shape: tuple[int, ...]):
    """A plane function (see _pairwise_sum) over new float64 arrays of shape,
    each made on its first request."""
    planes: list[np.ndarray] = []

    def plane(i: int) -> np.ndarray:
        while len(planes) <= i:
            planes.append(np.empty(shape))
        return planes[i]

    return plane


def minkowski_distances(a: np.ndarray, b: np.ndarray, power: float, plane=None) -> np.ndarray:
    """(len(a), len(b)) Minkowski distances sum_j |a_j - b_j| ** power, then
    ** (1 / power), built one (len(a), len(b)) plane per feature. Equal bit
    for bit to np.sum(np.abs(a[:, None] - b[None]) ** power, axis=2) ** (1 /
    power) without its (len(a), len(b), features) temporaries.

    plane(i) gives the i-th (len(a), len(b)) float64 array to work in (see
    _pairwise_sum), and the result is plane(0); without it each is new."""
    diff = lambda j, out: np.subtract.outer(a[:, j], b[:, j], out=out)  # noqa: E731
    return _minkowski(diff, a.shape[1], power, plane or _fresh_planes((len(a), len(b))))


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


def _extent(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's (min, max) of a (features, n) array; zeros when n is 0."""
    if x.shape[1] == 0:
        return np.zeros(len(x)), np.zeros(len(x))
    return x.min(axis=1), x.max(axis=1)


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

    A miss computes the lists one block of validation rows at a time,
    BLOCK_BYTES // (8 * n_train) rows (at least one), so its working memory
    is one block's planes plus the (n_val, k_cap) lists. Each block is
    searched in two passes (_nearest_block): a float32 screen against every
    training row, then exact float64 distances to each row's few candidates
    only. A row's distances and order depend on that row alone, and the
    screen provably keeps every column the exact order needs, so the lists
    are the same bit for bit as _nearest over minkowski_distances' whole
    float64 distance matrix. For the screen the scorer keeps float32 copies
    of the features, centred per feature and transposed to one contiguous
    row per feature. Each thread keeps the two float32 planes it screened in
    and reuses them for its later misses, so a miss does not allocate, and
    fault in, fresh planes for every block. Training labels are held as codes
    in the smallest unsigned dtype that holds them."""

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
        self._local = threading.local()  # .planes: this thread's two float32 screen planes
        self._train_t = np.ascontiguousarray(self.train_x.T)  # the refine gathers from one row per feature
        lo, hi = _extent(np.hstack([self._train_t, self.val_x.T]))
        with np.errstate(over="ignore", invalid="ignore"):
            centre = lo / 2 + hi / 2
            train_c, val_c = self._train_t - centre[:, None], self.val_x.T - centre[:, None]
            self._train32, self._val32 = (np.ascontiguousarray(x, dtype=np.float32) for x in (train_c, val_c))
            (train_lo, train_hi), (val_lo, val_hi) = _extent(train_c), _extent(val_c)
            # e_j and span_j of _screen_bound, per feature
            largest = np.maximum(-train_lo, train_hi) + np.maximum(-val_lo, val_hi)
            self._input_error = 2 * _U32 * (1 + _U32) * largest + 2 * _TINY32
            self._span = np.maximum(val_hi - train_lo, train_hi - val_lo)

    def _plane(self, i: int, rows: int, step: int) -> np.ndarray:
        """The first `rows` rows of this thread's i-th (step, n_train) float32 screen plane."""
        planes = self._local.__dict__.setdefault("planes", [])
        while len(planes) <= i:
            planes.append(np.empty((step, len(self.train_x)), dtype=np.float32))
        return planes[i][:rows]

    def _screen_bound(self, power: float) -> tuple[float, float, float, float]:
        """(r, G, A, q) of the screen's error bound at this power.

        For a validation row a and a training row b let T = sum_j |a_j -
        b_j| ** p in exact arithmetic, and S the screen's float32 value: the
        sum over features of |a'_j - b'_j| ** p32, every operation in
        float32, where a'_j and b'_j are the float32 copies of the centred
        features and p32 = float32(p). With u = 2 ** -24 and n features:

        - Inputs. A centred value rounds to float32 with error at most
          u |x| + 2 ** -150 (and to float64, when centred, with 2 ** -53 |x|);
          the float32 difference rounds by at most u relative, and is exact
          when subnormal. So x' = |a'_j - b'_j| is within
          e_j = 2u(1 + u)(max|a_j| + max|b_j|) + 2 * 2 ** -149
          of x = |a_j - b_j|, over the centred maxima of validation and
          training rows.
        - Through |x| ** p. |x' ** p - x ** p| <= g_j, where g_j = e_j ** p
          for p <= 1 (t ** p is subadditive there) and, for p > 1,
          g_j = p (span_j + e_j) ** (p - 1) e_j (the mean value theorem:
          x <= span_j, the largest |a_j - b_j| over all pairs, and
          x' <= span_j + e_j). G is the sum of the g_j times (1 + r), which
          absorbs the float64 rounding of this bound.
        - Float32 pow and sum. Each term is within 8 ulps (16u relative) of
          x' ** p32, or within 8 * 2 ** -149 when subnormal; x' ** p32 is
          within a factor exp(+-104 |p32 - p|) of x' ** p, since a nonzero
          float32 has |ln x'| < 104; the sequential sum of n nonnegative
          terms adds (n - 1) u relative. These factors multiply, so with the
          relative slack r = expm1(SCREEN_SLACK (n + 1) u + 104 |p32 - p|)
          and the absolute A = SCREEN_SLACK (n + 1) 2 ** -149:
              (1 - r)(T - G) - A <= S <= (1 + r)(T + G) + A.
        - Headroom for float64 ties. The row's k columns of smallest S have
          T <= (s_k + A) / (1 - r) + G, where s_k is the k-th smallest S, and
          so does the k-th smallest T. The exact float64 sum is within a
          factor exp(+-(p + n + 16) 2 ** -53) of T: its differences round by
          2 ** -53 relative, which |x| ** p makes p 2 ** -53; its pow is
          within 8 ulps; its sum adds (n - 1) 2 ** -53; subnormal losses are
          far below A. Two sums whose float64 roots are equal, or in either
          order, are within a factor exp(p 2 ** -48) of each other when the
          root is within 8 ulps. q = expm1(SCREEN_SLACK (n + 2p + 1) 2 ** -52)
          covers all of these, both ways. So every column whose float64
          distance is at most the k-th one's has
          T <= ((s_k + A) / (1 - r) + G)(1 + q) + A, and therefore
          S <= threshold = (1 + r)(((s_k + A) / (1 - r) + G)(1 + q) + A + G) + A;
          when r >= 1 the threshold is infinite.

        A column whose S exceeds the threshold cannot be among the row's k
        nearest, nor tie with its k-th. _nearest_block keeps the k + SCREEN_EXTRA
        smallest S; when even the largest of them is within the threshold,
        or the row's screen is not finite (float32 overflow at a large
        power), the kept set may miss a needed column and the row takes the
        exact path over all columns instead. The bound only decides which
        columns are refined, never a distance, so a loose bound costs time
        (more fallbacks), not exactness."""
        n = len(self._span)
        with np.errstate(over="ignore", invalid="ignore"):  # a huge power makes the bound infinite
            p32 = float(np.float32(power))
            r = float(np.expm1(SCREEN_SLACK * (n + 1) * _U32 + _LOG_RANGE32 * abs(p32 - power)))
            e = self._input_error
            g = e**power if power <= 1 else power * (self._span + e) ** (power - 1) * e
            G = float(np.sum(g)) * (1 + r)
            q = float(np.expm1(SCREEN_SLACK * (n + 2 * power + 1) * 2.0**-52))
        A = SCREEN_SLACK * (n + 1) * _TINY32
        return r, G, A, q

    def _nearest_block(self, lo: int, hi: int, width: int, power: float, step: int) -> tuple[np.ndarray, np.ndarray]:
        """Columns and distances of each of validation rows lo:hi's `width`
        nearest training rows in neighbour order, equal bit for bit to
        _nearest(minkowski_distances(rows, train, power), width).

        The float32 screen (see _screen_bound) runs in this thread's two
        planes; each row's width + SCREEN_EXTRA smallest screened columns,
        sorted by column, get exact float64 distances from the same
        operations as minkowski_distances, and a stable sort of those by
        distance gives the row's order. A row the screen cannot settle takes
        the exact path over all columns, as does every row when the training
        rows are too few to screen."""
        block = self.val_x[lo:hi]
        m = width + SCREEN_EXTRA
        if m >= len(self.train_x):
            return _nearest(minkowski_distances(block, self.train_x, power), width)
        r, G, A, q = self._screen_bound(power)
        total, term = self._plane(0, hi - lo, step), self._plane(1, hi - lo, step)
        total.fill(0.0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            p32 = np.float32(power)
            for a, b in zip(self._val32[:, lo:hi], self._train32):
                np.subtract.outer(a, b, out=term)
                np.abs(term, out=term)
                term **= p32
                total += term
            cand = np.argpartition(total, m - 1, axis=1)[:, :m]
            screened = np.take_along_axis(total, cand, axis=1).astype(np.float64)
            s_k = np.partition(screened, width - 1, axis=1)[:, width - 1]
            threshold = (1 + r) * (((s_k + A) / max(1 - r, 0.0) + G) * (1 + q) + A + G) + A
        exact = ~(screened[:, m - 1] > threshold) | ~np.isfinite(total.max(axis=1))

        cols = np.empty((hi - lo, width), dtype=np.intp)
        near = np.empty((hi - lo, width))
        keep = np.flatnonzero(~exact)
        if keep.size:
            cand = np.sort(cand[keep], axis=1)  # by column, so the stable sort breaks distance ties by column
            rows = block[keep]

            def diff(j: int, out: np.ndarray) -> None:
                np.subtract(rows[:, j, None], np.take(self._train_t[j], cand, out=out), out=out)

            dists = _minkowski(diff, block.shape[1], power, _fresh_planes(cand.shape))
            order = np.argsort(dists, axis=1, kind="stable")[:, :width]
            cols[keep] = np.take_along_axis(cand, order, axis=1)
            near[keep] = np.take_along_axis(dists, order, axis=1)
        if exact.any():
            cols[exact], near[exact] = _nearest(minkowski_distances(block[exact], self.train_x, power), width)
        return cols, near

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
            hi = min(lo + step, len(self.val_x))
            cols, near[lo:hi] = self._nearest_block(lo, hi, width, power, step)
            labels[lo:hi] = self.train_y[cols]
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
        not kept screens all len(validation) * len(train) pairs in float32
        (one float32 power per feature per pair), partitions each row of the
        screen for its k_cap + SCREEN_EXTRA candidates, and takes exact
        float64 distances for those alone, one block of rows at a time;
        a row the screen cannot settle computes its whole row in float64.
        Every call then adds k columns of votes. These are block-wide numpy
        passes that release the GIL, so concurrent calls run in parallel.
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
