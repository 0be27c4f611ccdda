"""Objective suite: analytic test functions, the built-in k-NN learner over a
validation partition, CSV ingestion, and the external-process adapter."""

from __future__ import annotations

from ..manager import check_keys, check_param
from ..space import SearchSpace
from .data import Dataset, DatasetError, Partition, PartitionSpec, load_csv, make_blobs, partition
from .external import ExternalObjective
from .functions import (
    BRANIN_MINIMUM,
    BRANIN_SPACE,
    MIXED_SYNTHETIC_SPACE,
    BuiltinObjective,
    SpaceMismatchError,
    branin,
    mixed_synthetic,
    rastrigin,
    rosenbrock,
    sphere,
)
from .knn import KnnObjective, default_knn_space

__all__ = [
    "BRANIN_MINIMUM",
    "BRANIN_SPACE",
    "MIXED_SYNTHETIC_SPACE",
    "BuiltinObjective",
    "Dataset",
    "DatasetError",
    "ExternalObjective",
    "KnnObjective",
    "Partition",
    "PartitionSpec",
    "SpaceMismatchError",
    "branin",
    "build_objective",
    "default_knn_space",
    "load_csv",
    "make_blobs",
    "mixed_synthetic",
    "partition",
    "rastrigin",
    "rosenbrock",
    "sphere",
]


# make_blobs's params of a blobs reference: (integer, minimum) of each.
_BLOB_PARAMS = {
    "n_rows": (True, 2),
    "n_features": (True, 1),
    "sigma": (False, 0),
    "separation": (False, 0),
    "seed": (True, 0),
}


def build_objective(spec: dict, space: SearchSpace, seed: int = 0):
    """Construct the evaluation callable described by a config objective spec.

    Shapes: {"builtin": {"name": ..., "params": {...}}},
    {"knn": {"dataset": {"csv": path, "label": col} | {"blobs": {...}},
    "validation_fraction": f, "stratified": bool}}, or
    {"external": {"command": ..., "timeout_ms": n}}.
    """
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"objective spec must have exactly one kind, got {spec!r}")
    kind, body = next(iter(spec.items()))
    if kind == "builtin":
        body = check_keys("objective.builtin", body, ("name", "params"))
        return BuiltinObjective(body.get("name"), space, body.get("params"), seed)
    if kind == "knn":
        body = check_keys("objective.knn", body, ("dataset", "validation_fraction", "partition_seed", "stratified"))
        dataset_ref = check_keys("knn.dataset", body.get("dataset"), ("csv", "label", "blobs"))
        if "csv" in dataset_ref:
            dataset_ref = check_keys("knn.dataset", dataset_ref, ("csv", "label"))
            for name in ("csv", "label"):
                if not isinstance(dataset_ref.get(name), str):
                    raise ValueError(f"knn.dataset.{name} must be a string, got {dataset_ref.get(name)!r}")
            try:
                dataset = load_csv(dataset_ref["csv"], dataset_ref["label"])
            except OSError as exc:
                raise ValueError(f"knn.dataset.csv cannot be read: {exc}") from None
        elif "blobs" in dataset_ref:
            dataset_ref = check_keys("knn.dataset", dataset_ref, ("blobs",))
            blob_args = check_keys("knn.dataset.blobs", dataset_ref["blobs"], tuple(_BLOB_PARAMS))
            blob_args.setdefault("seed", seed)
            for name, value in blob_args.items():
                integer, minimum = _BLOB_PARAMS[name]
                check_param(f"knn.dataset.blobs.{name}", value, integer=integer, minimum=minimum)
            dataset = make_blobs(**blob_args)
        else:
            raise ValueError(f"unknown dataset reference {dataset_ref!r}")
        fraction = body.get("validation_fraction", 0.30)
        check_param("knn.validation_fraction", fraction, integer=False, minimum=0, strict=True)
        if fraction >= 1:
            raise ValueError(f"knn.validation_fraction must lie in (0, 1), got {fraction!r}")
        partition_seed = body.get("partition_seed", seed)
        check_param("knn.partition_seed", partition_seed, integer=True, minimum=0)
        stratified = body.get("stratified", True)
        if not isinstance(stratified, bool):
            raise ValueError(f"knn.stratified must be true or false, got {stratified!r}")
        return KnnObjective(space, dataset, PartitionSpec(fraction, partition_seed, stratified))
    if kind == "external":
        body = check_keys("objective.external", body, ("command", "timeout_ms"))
        return ExternalObjective(space, body.get("command"), body.get("timeout_ms", 10_000))
    raise ValueError(f"unknown objective kind {kind!r}")
