"""Datasets for the built-in learner: CSV ingestion, synthetic blob data, and
stratified train/validation partitioning."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    pass


@dataclass
class Dataset:
    features: np.ndarray  # (rows, columns) of reals
    labels: list[str]
    columns: list[str]

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or len(self.labels) != self.features.shape[0]:
            raise DatasetError("features must be (rows, cols) aligned with labels")
        bad_rows = np.flatnonzero(~np.isfinite(self.features).all(axis=1))
        if bad_rows.size:  # k-NN cannot order NaN distances
            raise DatasetError(f"row {bad_rows[0] + 1} has a NaN or infinite feature value")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: list[int]) -> "Dataset":
        return Dataset(self.features[indices], [self.labels[i] for i in indices], self.columns)


def load_csv(path: str | Path, label_column: str) -> Dataset:
    """Parse a headered CSV into numeric features plus a string label column."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        if label_column not in header:
            raise DatasetError(f"{path}: label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
        feature_cols = [name for i, name in enumerate(header) if i != label_idx]

        rows: list[list[float]] = []
        labels: list[str] = []
        for row_idx, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: row {row_idx} has {len(row)} cells, expected {len(header)}"
                )
            feature_cells = [cell for i, cell in enumerate(row) if i != label_idx]
            try:
                rows.append([float(cell) for cell in feature_cells])
            except ValueError:
                raise DatasetError(f"{path}: row {row_idx} has an unparseable numeric cell") from None
            labels.append(row[label_idx])
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    try:
        return Dataset(np.array(rows, dtype=float), labels, feature_cols)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def make_blobs(
    n_rows: int = 200,
    n_features: int = 2,
    sigma: float = 0.3,
    separation: float = 4.0,
    seed: int = 0,
) -> Dataset:
    """Two Gaussian blobs with centers `separation` apart along the first axis."""
    rng = np.random.default_rng(seed)
    half = n_rows // 2
    centers = np.zeros((2, n_features))
    centers[1, 0] = separation
    features = np.concatenate(
        [
            centers[0] + sigma * rng.standard_normal((half, n_features)),
            centers[1] + sigma * rng.standard_normal((n_rows - half, n_features)),
        ]
    )
    labels = ["a"] * half + ["b"] * (n_rows - half)
    columns = [f"f{i}" for i in range(n_features)]
    return Dataset(features, labels, columns)


@dataclass(frozen=True)
class PartitionSpec:
    validation_fraction: float = 0.30
    seed: int = 0
    stratified: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation fraction must lie in (0, 1)")


@dataclass
class Partition:
    train: Dataset
    validation: Dataset
    stratified: bool  # False when a tiny class forced the unstratified fallback


def _largest_remainder(counts: list[int], fraction: float, total: int) -> list[int]:
    quotas = [c * fraction for c in counts]
    base = [math.floor(q) for q in quotas]
    remainders = sorted(
        range(len(counts)), key=lambda i: (-(quotas[i] - base[i]), i)
    )
    short = total - sum(base)
    for i in remainders[:short]:
        base[i] += 1
    return base


def partition(dataset: Dataset, spec: PartitionSpec) -> Partition:
    """Split into disjoint, exhaustive train/validation sets.

    Stratified splits allocate per-class validation counts by largest
    remainder (within one row of exact proportionality). A class with fewer
    than 2 rows cannot be stratified; the split falls back to a plain shuffle
    and flags it.
    """
    n = len(dataset)
    if n < 2:
        raise DatasetError("need at least 2 rows to partition")
    n_val = min(max(int(math.floor(n * spec.validation_fraction + 0.5)), 1), n - 1)
    rng = np.random.default_rng(spec.seed)

    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(dataset.labels):
        by_class.setdefault(label, []).append(i)

    use_strata = spec.stratified and all(len(v) >= 2 for v in by_class.values())
    val_idx: list[int] = []
    if use_strata:
        classes = sorted(by_class)
        counts = [len(by_class[c]) for c in classes]
        allocation = _largest_remainder(counts, spec.validation_fraction, n_val)
        for cls, take in zip(classes, allocation):
            order = rng.permutation(len(by_class[cls]))
            val_idx.extend(by_class[cls][i] for i in order[:take])
    else:
        order = rng.permutation(n)
        val_idx = [int(i) for i in order[:n_val]]

    val_set = set(val_idx)
    train_idx = [i for i in range(n) if i not in val_set]
    return Partition(
        train=dataset.subset(train_idx),
        validation=dataset.subset(sorted(val_idx)),
        stratified=use_strata,
    )
