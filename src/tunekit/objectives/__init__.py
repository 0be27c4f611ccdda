"""Objective suite: analytic test functions, the built-in k-NN learner over a
validation partition, CSV ingestion, and the external-process adapter."""

from __future__ import annotations

from ..manager import check_param
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
    check_keys,
    mixed_synthetic,
    rastrigin,
    rosenbrock,
    sphere,
)
from .knn import KnnObjective, default_knn_space, knn_error_rate

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
    "knn_error_rate",
    "load_csv",
    "make_blobs",
    "mixed_synthetic",
    "partition",
    "rastrigin",
    "rosenbrock",
    "sphere",
]


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
            dataset = load_csv(dataset_ref["csv"], dataset_ref["label"])
        elif "blobs" in dataset_ref:
            blob_args = check_keys(
                "knn.dataset.blobs", dataset_ref["blobs"], ("n_rows", "n_features", "sigma", "separation", "seed")
            )
            blob_args.setdefault("seed", seed)
            dataset = make_blobs(**blob_args)
        else:
            raise ValueError(f"unknown dataset reference {dataset_ref!r}")
        part_spec = PartitionSpec(
            validation_fraction=body.get("validation_fraction", 0.30),
            seed=body.get("partition_seed", seed),
            stratified=body.get("stratified", True),
        )
        return KnnObjective(space, dataset, part_spec)
    if kind == "external":
        body = check_keys("objective.external", body, ("command", "timeout_ms"))
        command, timeout_ms = body.get("command"), body.get("timeout_ms", 10_000)
        words = command.split() if isinstance(command, str) else command
        if not (isinstance(words, list) and words and all(isinstance(w, str) for w in words) and words[0]):
            raise ValueError(f"external.command must be a nonempty string or list of strings, got {command!r}")
        check_param("external.timeout_ms", timeout_ms, integer=True, minimum=0, strict=True)
        return ExternalObjective(space, command, timeout_ms)
    raise ValueError(f"unknown objective kind {kind!r}")
