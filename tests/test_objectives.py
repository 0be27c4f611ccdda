"""Objective suite: analytic functions, dataset partitioning, the k-NN
learner, CSV ingestion, and the external-process protocol."""

from __future__ import annotations

import math
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from helpers import scalar_knn_error_rate
from tunekit.objectives import (
    BRANIN_MINIMUM,
    BRANIN_SPACE,
    MIXED_SYNTHETIC_SPACE,
    BuiltinObjective,
    Dataset,
    DatasetError,
    ExternalObjective,
    KnnObjective,
    PartitionSpec,
    SpaceMismatchError,
    build_objective,
    default_knn_space,
    knn_error_rate,
    load_csv,
    make_blobs,
    partition,
)
from tunekit.objectives.knn import minkowski_distances
from tunekit.space import CategoricalVariable, ContinuousVariable, IntegerVariable, Point, SearchSpace
from tunekit.trials import EvaluationFailed

BOX2 = SearchSpace([ContinuousVariable("x", -5.0, 5.0), ContinuousVariable("y", -5.0, 5.0)])


# -- analytic functions ----------------------------------------------------------


def test_sphere_at_origin():
    objective = BuiltinObjective("sphere", BOX2)
    assert objective(Point([0.0, 0.0])) == 0.0


def test_branin_known_minimum():
    objective = BuiltinObjective("branin", BRANIN_SPACE)
    assert objective(Point([math.pi, 2.275])) == pytest.approx(0.397887, abs=1e-5)
    assert objective(Point([math.pi, 2.275])) == pytest.approx(BRANIN_MINIMUM, abs=1e-9)


def test_rastrigin_at_origin_and_scale():
    space = SearchSpace([ContinuousVariable(f"x{i}", -5.12, 5.12) for i in range(3)])
    objective = BuiltinObjective("rastrigin", space)
    assert objective(Point([0.0, 0.0, 0.0])) == 0.0
    assert objective(Point([1.0, 1.0, 1.0])) == pytest.approx(3.0)  # x=1: x^2 - 10cos(2pi x) + 10 = 1


def test_rosenbrock_minimum_at_ones():
    objective = BuiltinObjective("rosenbrock", BOX2)
    assert objective(Point([1.0, 1.0])) == 0.0


def test_mixed_synthetic_minimum_and_terms():
    objective = BuiltinObjective("mixed_synthetic", MIXED_SYNTHETIC_SPACE)
    assert objective(Point([0.0, 0.0, 3, "a"])) == 0.0
    assert objective(Point([0.0, 0.0, 5, "a"])) == pytest.approx(2.0)  # 0.5*(5-3)^2
    assert objective(Point([0.0, 0.0, 3, "c"])) == pytest.approx(3.0)  # level index 2 * 1.5


def test_deterministic_builtins_bit_identical():
    objective = BuiltinObjective("rastrigin", BOX2)
    p = Point([1.2345, -2.3456])
    assert objective(p) == objective(p)


def test_builtin_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        BuiltinObjective("branin", SearchSpace([ContinuousVariable("x", 0.0, 1.0)]))
    with pytest.raises(SpaceMismatchError):
        BuiltinObjective("unknown_function", BOX2)


def test_noisy_reproducible_per_eval_id():
    objective = BuiltinObjective("noisy", BOX2, {"base": "sphere", "sigma": 0.5}, seed=9)
    p = Point([1.0, 1.0])
    assert objective(p, eval_id=3) == objective(p, eval_id=3)
    assert objective(p, eval_id=3) != objective(p, eval_id=4)
    other_seed = BuiltinObjective("noisy", BOX2, {"base": "sphere", "sigma": 0.5}, seed=10)
    assert objective(p, eval_id=3) != other_seed(p, eval_id=3)


def test_cliff_fails_inside_region():
    objective = BuiltinObjective("cliff", BOX2, {"base": "sphere", "fail_var": 0, "fail_above": 4.5})
    assert objective(Point([4.4, 0.0])) == pytest.approx(19.36)
    with pytest.raises(EvaluationFailed) as err:
        objective(Point([4.75, 0.0]))
    assert err.value.reason == "hidden_constraint"


# -- partition ----------------------------------------------------------------------


def _labeled_dataset(counts: dict[str, int], seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    labels = [label for label, n in counts.items() for _ in range(n)]
    return Dataset(rng.standard_normal((len(labels), 2)), labels, ["f0", "f1"])


def test_balanced_partition_counts():
    dataset = _labeled_dataset({"a": 50, "b": 50})
    split = partition(dataset, PartitionSpec(validation_fraction=0.3, seed=1))
    assert len(split.validation) == 30
    assert split.validation.class_counts() == {"a": 15, "b": 15}
    assert split.stratified


def test_partition_deterministic():
    dataset = _labeled_dataset({"a": 40, "b": 20})
    one = partition(dataset, PartitionSpec(seed=7))
    two = partition(dataset, PartitionSpec(seed=7))
    assert np.array_equal(one.validation.features, two.validation.features)
    assert one.validation.labels == two.validation.labels


def test_largest_remainder_seven_three():
    dataset = _labeled_dataset({"a": 7, "b": 3})
    split = partition(dataset, PartitionSpec(validation_fraction=0.3, seed=2))
    assert len(split.validation) == 3
    assert split.validation.class_counts() == {"a": 2, "b": 1}


def test_partition_disjoint_exhaustive():
    dataset = _labeled_dataset({"a": 13, "b": 8, "c": 5})
    split = partition(dataset, PartitionSpec(validation_fraction=0.25, seed=3))
    combined = sorted(
        [tuple(row) for row in split.train.features] + [tuple(row) for row in split.validation.features]
    )
    assert combined == sorted(tuple(row) for row in dataset.features)
    train_rows = {tuple(row) for row in split.train.features}
    assert all(tuple(row) not in train_rows for row in split.validation.features)


def test_tiny_class_falls_back_unstratified():
    dataset = _labeled_dataset({"a": 9, "b": 1})
    split = partition(dataset, PartitionSpec(validation_fraction=0.3, seed=4))
    assert not split.stratified
    assert len(split.validation) == 3


# -- k-NN -----------------------------------------------------------------------------


def test_duplicate_train_row_classified_correctly():
    train = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), ["a", "b"], ["f0", "f1"])
    validation = Dataset(np.array([[0.0, 0.0]]), ["a"], ["f0", "f1"])
    assert knn_error_rate(train, validation, k=1) == 0.0


def test_blobs_task_low_error():
    dataset = make_blobs(n_rows=200, sigma=0.3, separation=4.0, seed=7)
    split = partition(dataset, PartitionSpec(validation_fraction=0.3, seed=7))
    error = knn_error_rate(split.train, split.validation, k=5, weight="uniform", power=2.0)
    assert error <= 0.05


def test_k_equal_train_size_predicts_majority():
    train = _labeled_dataset({"a": 14, "b": 6}, seed=5)
    validation = _labeled_dataset({"a": 7, "b": 3}, seed=6)
    error = knn_error_rate(train, validation, k=len(train), weight="uniform")
    assert error == pytest.approx(3 / 10)  # every row predicted "a"


def test_error_rate_invariant_under_training_permutation():
    rng = np.random.default_rng(11)
    dataset = make_blobs(n_rows=60, sigma=1.5, separation=2.0, seed=11)
    split = partition(dataset, PartitionSpec(seed=11))
    base = knn_error_rate(split.train, split.validation, k=7, weight="inverse", power=1.5)
    order = rng.permutation(len(split.train))
    shuffled = Dataset(
        split.train.features[order], [split.train.labels[i] for i in order], split.train.columns
    )
    assert knn_error_rate(shuffled, split.validation, k=7, weight="inverse", power=1.5) == base


def test_error_rate_bounds_and_validation():
    train = _labeled_dataset({"a": 10, "b": 10}, seed=1)
    validation = _labeled_dataset({"a": 5, "b": 5}, seed=2)
    for k in (1, 5, 20):
        assert 0.0 <= knn_error_rate(train, validation, k=k) <= 1.0
    with pytest.raises(EvaluationFailed):
        knn_error_rate(train, validation, k=0)
    with pytest.raises(EvaluationFailed):
        knn_error_rate(train, validation, k=21)
    with pytest.raises(EvaluationFailed):
        knn_error_rate(train, validation, k=1, power=0.0)


def _grid_dataset(rng, rows: int, features: int, labels: list[str]) -> Dataset:
    """Rows on the integer grid {0, 1, 2}^features: duplicate rows, equal
    distances and tied votes abound."""
    x = rng.integers(0, 3, (rows, features)).astype(float)
    y = [labels[i] for i in rng.integers(0, len(labels), rows)]
    return Dataset(x, y, [f"f{j}" for j in range(features)])


@pytest.mark.parametrize("power", [0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("weight", ["uniform", "inverse"])
def test_error_rate_equals_scalar_oracle_on_tie_heavy_data(weight, power):
    rng = np.random.default_rng(23)
    train = _grid_dataset(rng, 30, 2, ["a", "b", "c"])
    validation = _grid_dataset(rng, 20, 2, ["a", "b", "c", "z"])  # "z": no training row has it
    assert len({tuple(row) for row in train.features}) < len(train)
    assert "z" in validation.labels
    for k in (1, 2, 3, 4, len(train)):
        expected = scalar_knn_error_rate(train, validation, k, weight, power)
        assert knn_error_rate(train, validation, k=k, weight=weight, power=power) == expected


@pytest.mark.parametrize("features", [1, 6, 9, 17, 130])
def test_error_rate_equals_scalar_oracle_on_continuous_data(features):
    rng = np.random.default_rng(features)
    train = Dataset(rng.standard_normal((40, features)), list(rng.choice(["a", "b"], 40)), [""] * features)
    validation = Dataset(rng.standard_normal((25, features)), list(rng.choice(["a", "b"], 25)), [""] * features)
    for k, weight, power in [(1, "uniform", 2.0), (2, "inverse", 0.5), (7, "inverse", 3.7), (40, "uniform", 1.0)]:
        expected = scalar_knn_error_rate(train, validation, k, weight, power)
        assert knn_error_rate(train, validation, k=k, weight=weight, power=power) == expected


@pytest.mark.parametrize("features", [0, 1, 7, 8, 9, 16, 17, 128, 129, 136, 300])
def test_minkowski_distances_equal_the_summed_tensor(features):
    rng = np.random.default_rng(features)
    a = rng.standard_normal((9, features)) * 10.0 ** rng.integers(-4, 4, (9, features))
    b = rng.standard_normal((11, features))
    for power in (0.5, 1.0, 1.37, 2.0, 3.3):
        expected = np.sum(np.abs(a[:, None, :] - b[None, :, :]) ** power, axis=2) ** (1.0 / power)
        assert np.array_equal(minkowski_distances(a, b, power), expected)


def test_knn_objective_shared_by_threads_matches_serial():
    dataset = make_blobs(n_rows=400, n_features=4, sigma=1.0, separation=1.5, seed=5)
    objective = KnnObjective(default_knn_space(train_rows=280), dataset, PartitionSpec(seed=5))
    points = [Point([k, w, p]) for k in (1, 4, 17, 31) for w in ("uniform", "inverse") for p in (0.7, 2.0, 3.1)]
    serial = [objective(p) for p in points]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = [pool.map(objective, points, timeout=60) for _ in range(4)]
            assert all(list(values) == serial for values in concurrent)
    finally:
        sys.setswitchinterval(interval)


def test_knn_objective_point_mapping():
    from tunekit.objectives import default_knn_space

    dataset = make_blobs(n_rows=100, seed=3)
    space = default_knn_space(train_rows=70)
    objective = KnnObjective(space, dataset, PartitionSpec(seed=3))
    value = objective(Point([5, "uniform", 2.0]))
    assert 0.0 <= value <= 1.0


def test_knn_objective_k_bound_checked_at_construction():
    dataset = make_blobs(n_rows=20, seed=3)  # 14 training rows after the split
    space = SearchSpace(
        [
            IntegerVariable("k", 1, 50),
            *default_knn_space(50).variables[1:],
        ]
    )
    with pytest.raises(ValueError):
        KnnObjective(space, dataset, PartitionSpec(seed=3))


@pytest.mark.parametrize(
    "index, variable",
    [
        (0, IntegerVariable("k", 0, 5)),
        (0, ContinuousVariable("k", 1.0, 5.0)),
        (0, None),
        (1, CategoricalVariable("weight", ("uniform", "foo"))),
        (1, ContinuousVariable("weight", 0.0, 1.0)),
        (2, ContinuousVariable("power", 0.0, 4.0)),
        (2, IntegerVariable("power", 1, 4)),
    ],
)
def test_knn_objective_rejects_a_space_that_can_only_fail(index, variable):
    knn_vars = list(default_knn_space(5).variables)
    name = knn_vars[index].name
    knn_vars[index : index + 1] = [] if variable is None else [variable]
    with pytest.raises(SpaceMismatchError, match=f"variable '{name}'"):
        KnnObjective(SearchSpace(knn_vars), make_blobs(n_rows=20, seed=3), PartitionSpec(seed=3))


# -- CSV ----------------------------------------------------------------------------------


def test_load_csv_roundtrip(tmp_path: Path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b,y\n1,2,pos\n3,4,neg\n5,6,pos\n", encoding="utf-8")
    dataset = load_csv(csv_path, "y")
    assert len(dataset) == 3
    assert dataset.columns == ["a", "b"]
    assert dataset.labels == ["pos", "neg", "pos"]
    assert dataset.features[1].tolist() == [3.0, 4.0]


def test_load_csv_missing_label_column(tmp_path: Path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_csv(csv_path, "y")
    assert "y" in str(err.value)


def test_load_csv_unparseable_cell_cites_row(tmp_path: Path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b,y\n1,x,0\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_csv(csv_path, "y")
    assert "row 1" in str(err.value)


def test_load_csv_empty_and_ragged(tmp_path: Path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_csv(empty, "y")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,y\n1,2\n", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_csv(ragged, "y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite_feature(tmp_path: Path, cell):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(f"a,b,y\n1,2,pos\n3,{cell},neg\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_csv(csv_path, "y")
    assert "row 2" in str(err.value)


# -- external protocol -----------------------------------------------------------------------


def _stub(tmp_path: Path, body: str) -> list[str]:
    script = tmp_path / "stub.py"
    script.write_text(body, encoding="utf-8")
    return [sys.executable, str(script)]


ECHO_OK = """\
import json, sys
line = sys.stdin.readline()
payload = json.loads(line)
print(json.dumps({"objective": payload["params"]["x"] * 2}))
"""


def test_external_protocol_roundtrip(tmp_path: Path):
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    objective = ExternalObjective(space, _stub(tmp_path, ECHO_OK), timeout_ms=5000)
    assert objective(Point([0.75])) == pytest.approx(1.5)


def test_external_nonzero_exit(tmp_path: Path):
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    objective = ExternalObjective(space, _stub(tmp_path, "import sys; sys.exit(2)"), timeout_ms=5000)
    with pytest.raises(EvaluationFailed) as err:
        objective(Point([1.0]))
    assert err.value.reason == "nonzero_exit"


def test_external_timeout_with_grace(tmp_path: Path):
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    objective = ExternalObjective(
        space, _stub(tmp_path, "import time; time.sleep(30)"), timeout_ms=300
    )
    started = time.perf_counter()
    with pytest.raises(EvaluationFailed) as err:
        objective(Point([1.0]))
    elapsed_ms = (time.perf_counter() - started) * 1000
    assert err.value.reason == "timeout"
    assert elapsed_ms <= 300 + 500


def test_external_parse_error(tmp_path: Path):
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    objective = ExternalObjective(space, _stub(tmp_path, "print('not json')"), timeout_ms=5000)
    with pytest.raises(EvaluationFailed) as err:
        objective(Point([1.0]))
    assert err.value.reason == "parse_error"


def test_external_missing_command_is_failure():
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    objective = ExternalObjective(space, ["/does/not/exist"], timeout_ms=500)
    with pytest.raises(EvaluationFailed) as err:
        objective(Point([1.0]))
    assert err.value.reason == "nonzero_exit"


def test_external_reported_fail_status(tmp_path: Path):
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    body = 'print(\'{"objective": 1.0, "status": "diverged"}\')'
    objective = ExternalObjective(space, _stub(tmp_path, body), timeout_ms=5000)
    with pytest.raises(EvaluationFailed) as err:
        objective(Point([1.0]))
    assert err.value.reason == "diverged"


def _running(pid: int) -> bool:
    """Whether pid is a live process (a zombie waiting to be reaped is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


LEAVES_A_GRANDCHILD = """\
import subprocess, sys, time
child = subprocess.Popen(["sleep", "30"], stdout={stdout}, stderr=subprocess.DEVNULL)
open({pid_file!r}, "w").write(str(child.pid))
print('{{"objective": 1.0}}', flush=True)
{then}
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
@pytest.mark.parametrize(
    "stdout, then, reason",
    [
        ("None", "time.sleep(30)", "timeout"),  # the grandchild holds stdout open too
        ("subprocess.DEVNULL", "", None),  # the script exits 0 and leaves it behind
    ],
    ids=["timeout", "clean_exit"],
)
def test_external_evaluation_leaves_no_process_behind(tmp_path: Path, stdout, then, reason):
    space = SearchSpace([ContinuousVariable("x", 0.0, 10.0)])
    pid_file = tmp_path / "grandchild.pid"
    body = LEAVES_A_GRANDCHILD.format(stdout=stdout, pid_file=str(pid_file), then=then)
    objective = ExternalObjective(space, _stub(tmp_path, body), timeout_ms=1500)
    pid = None
    try:
        if reason is None:
            assert objective(Point([1.0])) == 1.0
        else:
            with pytest.raises(EvaluationFailed) as err:
                objective(Point([1.0]))
            assert err.value.reason == reason
        pid = int(pid_file.read_text(encoding="utf-8"))
        deadline = time.monotonic() + 5.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(pid)
    finally:
        if pid is not None and _running(pid):
            os.kill(pid, signal.SIGKILL)


# -- build_objective factory --------------------------------------------------------------------


def test_build_objective_dispatch(tmp_path: Path):
    builtin = build_objective({"builtin": {"name": "sphere"}}, BOX2, seed=1)
    assert builtin(Point([0.0, 0.0]), 0) == 0.0

    from tunekit.objectives import default_knn_space

    knn_space = default_knn_space(70)
    knn = build_objective(
        {"knn": {"dataset": {"blobs": {"n_rows": 100}}, "validation_fraction": 0.3}},
        knn_space,
        seed=2,
    )
    assert 0.0 <= knn(Point([3, "inverse", 2.0]), 0) <= 1.0

    with pytest.raises(ValueError):
        build_objective({"mystery": {}}, BOX2)
