"""Independent recomputations that the benchmark checks tunekit's outputs against.

Nothing here imports tunekit's distance, encoding or scoring code: each
oracle is written from the documented definition, with plain loops or dense
solves where tunekit uses its own kernels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# -- analytic objectives ------------------------------------------------------


def mixed_synthetic(space: list[dict], values: Sequence) -> float:
    """Squares of continuous values, 0.5 * (k - 3)^2 per integer, 1.5 * level index."""
    total = 0.0
    for var, value in zip(space, values):
        if var["type"] == "continuous":
            total += float(value) ** 2
        elif var["type"] == "integer":
            total += 0.5 * (int(value) - 3) ** 2
        else:
            total += 1.5 * var["levels"].index(value)
    return total


def rosenbrock(space: list[dict], values: Sequence) -> float:
    x = [float(v) for v in values]
    return sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2 for i in range(len(x) - 1))


ANALYTIC = {"mixed_synthetic": mixed_synthetic, "rosenbrock": rosenbrock}


# -- k-NN error ---------------------------------------------------------------


def knn_error(
    train_x: np.ndarray,
    train_labels: Sequence[str],
    val_x: np.ndarray,
    val_labels: Sequence[str],
    k: int,
    weight: str,
    power: float,
    eps: float = 1e-12,
) -> float:
    """Brute-force k-NN misclassification rate.

    Minkowski distance sum(|a - b|^power)^(1/power). Neighbours are ordered by
    distance, equal distances by training-row order. Votes count 1 each
    (uniform) or 1 / (distance + eps) (inverse); a tied vote goes to the
    label that sorts first.
    """
    labels = sorted(set(train_labels))
    errors = 0
    rows = np.arange(len(train_x))
    for x, truth in zip(val_x, val_labels):
        dist = np.sum(np.abs(train_x - x) ** power, axis=1) ** (1.0 / power)
        nearest = np.lexsort((rows, dist))[:k]
        votes = dict.fromkeys(labels, 0.0)
        for t in nearest:
            votes[train_labels[t]] += 1.0 if weight == "uniform" else 1.0 / (dist[t] + eps)
        top = max(votes.values())
        predicted = next(label for label in labels if votes[label] == top)
        errors += predicted != truth
    return errors / len(val_x)


# -- GP posterior ---------------------------------------------------------------


def unit_encode(space: list[dict], values: Sequence) -> list[float]:
    """Continuous and integer values scaled to [0, 1]; categoricals as level index."""
    coords = []
    for var, value in zip(space, values):
        if var["type"] == "categorical":
            coords.append(float(var["levels"].index(value)))
        else:
            lo, hi = var["bounds"]
            coords.append(0.0 if hi == lo else (float(value) - lo) / (hi - lo))
    return coords


def sq_distance_matrix(a: np.ndarray, b: np.ndarray, categorical: Sequence[bool]) -> np.ndarray:
    """Squared mixed distance between every row of a and every row of b:
    squared differences, 0/1 mismatch on categoricals."""
    diff = np.asarray(a, dtype=float)[:, None, :] - np.asarray(b, dtype=float)[None, :, :]
    return np.where(np.asarray(categorical, dtype=bool), diff != 0.0, diff**2).sum(axis=2)


def dense_gp_posterior(
    train_x: np.ndarray,
    train_y: np.ndarray,
    query: np.ndarray,
    length_scale: float,
    signal_var: float,
    jitter: float,
    categorical: Sequence[bool],
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of a squared-exponential GP with a constant
    prior mean equal to the target mean, by dense linear solves:
    mu = m + k*^T (K + jitter I)^-1 (y - m), var = sf2 - k*^T (K + jitter I)^-1 k*."""

    def kern(a, b):
        return signal_var * np.exp(-sq_distance_matrix(a, b, categorical) / (2.0 * length_scale**2))

    gram = kern(train_x, train_x) + jitter * np.eye(len(train_x))
    m = float(np.mean(train_y))
    weights = np.linalg.solve(gram, train_y - m)
    means, variances = [], []
    for k_star in kern(query, train_x):
        means.append(m + k_star @ weights)
        variances.append(max(signal_var - k_star @ np.linalg.solve(gram, k_star), 0.0))
    return np.array(means), np.array(variances)


def gp_hyperparameters(train_x: np.ndarray, train_y: np.ndarray, categorical: Sequence[bool]):
    """Length scale = median pairwise distance, signal variance = sample
    variance of the targets (each 1.0 when degenerate)."""
    n = len(train_x)
    pairs = np.sqrt(sq_distance_matrix(train_x, train_x, categorical)[np.triu_indices(n, k=1)])
    length_scale = float(np.median(pairs)) or 1.0
    signal_var = float(np.var(train_y, ddof=1)) or 1.0
    return length_scale, signal_var


# -- span arithmetic ------------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> dict[int, float]:
    """Self time of every span: its duration minus the durations of its child
    spans. Rows are (id, parent, name, thread, start, end, ...); children run
    on their parent's thread and do not overlap one another."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[5] - s[4]
    return own


def layer_self_time(spans: Sequence[Sequence], prefix: str) -> float:
    """Total self time of the spans whose name starts with prefix."""
    own = self_times(spans)
    return sum(own[s[0]] for s in spans if s[2].startswith(prefix))
