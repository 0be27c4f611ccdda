"""CLI behavior: exit codes, emitted files, determinism, and the allocation
simulator command."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from helpers import strip_wall_time
from tunekit import cli
from tunekit.cli import main
from tunekit.objectives import build_objective


def write_config(path: Path, **overrides) -> Path:
    config = {
        "space": [
            {"name": "x", "type": "continuous", "bounds": [-5.0, 5.0]},
            {"name": "y", "type": "continuous", "bounds": [-5.0, 5.0]},
        ],
        "objective": {"builtin": {"name": "sphere"}},
        "budget": {"evaluations": 20, "concurrency": 2},
        "solvers": [{"type": "random"}],
        "seed": 3,
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def run_cli(*args) -> "Result":
    return CliRunner().invoke(main, list(args))


# -- tune -------------------------------------------------------------------------


def test_tune_writes_outputs(tmp_path: Path):
    config = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    result = run_cli("tune", "--config", str(config), "--out", str(out))
    assert result.exit_code == 0, result.output
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "eval_id,iteration,solver_id,x,y,objective,status,wall_time_ms"
    assert len(history) == 21  # header + one row per budgeted evaluation
    assert "np." not in (out / "history.csv").read_text()  # native scalars only
    for line in history[1:]:
        x_cell = line.split(",")[3]
        assert float(x_cell) == float(repr(float(x_cell)))  # round-trip formatting
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status_counts"]["ok"] == 20
    assert "best objective" in result.output


def test_tune_unknown_solver_type_exit_1(tmp_path: Path):
    config = write_config(tmp_path / "cfg.json", solvers=[{"type": "annealing"}])
    result = run_cli("tune", "--config", str(config), "--out", str(tmp_path / "o"))
    assert result.exit_code == 1
    assert "annealing" in result.output


def test_tune_missing_config_exit_1(tmp_path: Path):
    result = run_cli("tune", "--config", str(tmp_path / "absent.json"))
    assert result.exit_code == 1


def test_tune_bad_solver_params_exit_1(tmp_path: Path):
    config = write_config(
        tmp_path / "cfg.json", solvers=[{"type": "hybrid", "params": {"population": 2, "centers": 5}}]
    )
    result = run_cli("tune", "--config", str(config), "--out", str(tmp_path / "o"))
    assert result.exit_code == 1
    config = write_config(
        tmp_path / "cfg2.json", solvers=[{"type": "random", "params": {"warp": 9}}]
    )
    result = run_cli("tune", "--config", str(config), "--out", str(tmp_path / "o2"))
    assert result.exit_code == 1
    assert "warp" in result.output


@pytest.mark.parametrize(
    "solver_type, params",
    [
        ("lhs", {"n": "abc"}),
        ("random", {"n": 0}),
        ("random", {"batch": 0}),
        ("neldermead", {"max_iters": "x"}),
        ("direct-nm", {"theta": "x"}),
        ("lhs", {"batch": -3}),
        ("neldermead", {"edge": 0}),
        ("random", {"batch": True}),
        ("direct-nm", {"theta": -1.0}),
        ("bayes", {"init": 2.5}),
        ("bayes", {"batch": True}),
        ("bayes", {"kappa": "x"}),
        ("hybrid", {"population": 10.5}),
        ("hybrid", {"tournament": 1.5}),
        ("hybrid", {"alpha": "x"}),
    ],
)
def test_tune_bad_solver_param_value_exit_1_before_any_evaluation(tmp_path: Path, solver_type, params):
    config = write_config(
        tmp_path / "cfg.json",
        solvers=[{"type": solver_type, "params": params}],
        budget={"evaluations": 30, "concurrency": 1},
    )
    out = tmp_path / "o"
    result = run_cli("tune", "--config", str(config), "--out", str(out))
    assert result.exit_code == 1, result.output
    (name,) = params
    assert f"bad {solver_type} params: {name}" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"budget": {"evaluations": 10.7}}, "budget.evaluations"),
        ({"budget": {"evaluations": 0}}, "budget.evaluations"),
        ({"budget": {"evaluations": "30"}}, "budget.evaluations"),
        ({"budget": {"evaluations": 30, "concurrency": True}}, "budget.concurrency"),
        ({"budget": {"evaluations": 30, "concurrency": 1.5}}, "budget.concurrency"),
        ({"seed": 2.9}, "seed"),
        ({"seed": -1}, "seed"),
        ({"solvers": [{"type": "random", "share": "false"}]}, "solvers[0].share"),
        ({"solvers": [{"type": "random", "share": 0}]}, "solvers[0].share"),
        ({"solvers": [{"type": "random", "label": 5}]}, "solvers[0].label"),
        ({"space": [{"name": "k", "type": "integer", "bounds": [1.7, 5.9]}]}, "k.bounds"),
        ({"space": [{"name": "k", "type": "integer", "bounds": [True, 5]}]}, "k.bounds"),
        ({"space": [{"name": "x", "type": "continuous", "bounds": ["-1", 1.0]}]}, "x.bounds"),
        ({"space": [{"name": "x", "type": "continuous", "bounds": [-1, True]}]}, "x.bounds"),
        ({"space": [{"name": "x", "type": "continuous", "bounds": [float("-inf"), 1.0]}]}, "x.bounds"),
        ({"space": [{"name": "x", "type": "continuous", "bounds": [0, 10**400]}]}, "too large"),
        ({"space": [{"name": "k", "type": "integer", "bounds": [0, 10**400]}]}, "too large"),
        ({"space": [{"name": "c", "type": "categorical", "levels": "abc"}]}, "c.levels"),
        ({"space": [{"name": "c", "type": "categorical", "levels": [True, False]}]}, "c.levels"),
        ({"solvers": ["random"]}, "solvers[0]"),
        ({"solvers": {"type": "random"}}, "solvers"),
        ({"budget": [10]}, "budget"),
        ({"solvers": [{"type": "random", "params": [["batch", 4]]}]}, "solvers[0].params"),
        ({"space": [{"name": "k", "type": "integer", "bounds": [0, 2**60]}]}, "k.bounds"),
        ({"budget": {"evaluation": 7}}, "budget has unknown key 'evaluation'"),
        ({"solvers": [{"type": "random", "parms": {"batch": 4}}]}, "solvers[0] has unknown key 'parms'"),
        ({"sed": 4}, "config has unknown key 'sed'"),
        (
            {"space": [{"name": "x", "type": "continuous", "bounds": [0, 1], "levels": ["a"]}]},
            "space[0] has unknown key 'levels'",
        ),
        (
            {"space": [{"name": "c", "type": "categorical", "levels": ["a"], "bounds": [0, 1]}]},
            "space[0] has unknown key 'bounds'",
        ),
        ({"space": [{"name": 5, "type": "continuous", "bounds": [0, 1]}]}, "space[0].name"),
        ({"solvers": [{"type": "random", "label": "a"}, {"type": "lhs", "label": "a"}]}, "solver label 'a'"),
        ({"solvers": [{"type": "lhs", "label": "random-1"}, {"type": "random"}]}, "solver label 'random-1'"),
    ],
)
def test_tune_bad_config_field_exit_1_before_any_evaluation(tmp_path: Path, overrides, field):
    config = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "o"
    result = run_cli("tune", "--config", str(config), "--out", str(out))
    assert result.exit_code == 1, result.output
    assert field in result.output
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_tune_knn_csv_with_non_finite_feature_exit_1_before_any_evaluation(tmp_path: Path, cell):
    data = tmp_path / "data.csv"
    rows = [f"{i % 7},{(i * 3) % 5},{'ab'[i % 2]}" for i in range(40)]
    rows[17] = f"1,{cell},a"
    data.write_text("f0,f1,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    config = write_config(
        tmp_path / "cfg.json",
        space=[
            {"name": "k", "type": "integer", "bounds": [1, 5]},
            {"name": "weight", "type": "categorical", "levels": ["uniform", "inverse"]},
            {"name": "power", "type": "continuous", "bounds": [0.5, 4.0]},
        ],
        objective={"knn": {"dataset": {"csv": str(data), "label": "y"}}},
    )
    out = tmp_path / "o"
    result = run_cli("tune", "--config", str(config), "--out", str(out))
    assert result.exit_code == 1, result.output
    assert "row 18" in result.output
    assert not out.exists()


def test_csv_outputs_quote_cells_that_need_it(tmp_path: Path):
    config = write_config(
        tmp_path / "cfg.json",
        space=[
            {"name": "x", "type": "continuous", "bounds": [-5.0, 5.0]},
            {"name": "c", "type": "categorical", "levels": ["a,b", 'say "hi"', "line\nbreak", "carriage\rreturn"]},
        ],
        objective={"builtin": {"name": "mixed_synthetic"}},
        solvers=[
            {"type": "random", "label": "rand,1", "params": {"batch": 4}},
            {"type": "lhs", "label": 'lhs "2"', "params": {"batch": 4}},
            {"type": "random", "label": "rand\r3", "params": {"batch": 4}},
        ],
        budget={"evaluations": 30, "concurrency": 1},
    )
    out = tmp_path / "out"
    assert run_cli("tune", "--config", str(config), "--out", str(out)).exit_code == 0
    with open(out / "history.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["eval_id", "iteration", "solver_id", "x", "c", "objective", "status", "wall_time_ms"]
    assert len(rows) == 30 and all(len(row) == len(header) for row in rows)
    assert {row[2] for row in rows} == {"rand,1", 'lhs "2"', "rand\r3"}
    assert {row[4] for row in rows} == {"a,b", 'say "hi"', "line\nbreak", "carriage\rreturn"}

    bench_out = tmp_path / "bench"
    result = run_cli("bench", "--config", str(config), "--seeds", "2", "--out", str(bench_out))
    assert result.exit_code == 0, result.output
    for name, width in (("bench.csv", 5), ("bench_summary.csv", 4)):
        with open(bench_out / name, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(header) == width and all(len(row) == width for row in rows)
        assert {row[0] for row in rows} == {"rand,1", 'lhs "2"', "rand\r3"}


def test_tune_bad_objective_spec_exit_1(tmp_path: Path):
    config = write_config(tmp_path / "cfg.json", objective={"oracle": {}})
    result = run_cli("tune", "--config", str(config), "--out", str(tmp_path / "o"))
    assert result.exit_code == 1
    assert "oracle" in result.output


KNN_SPACE = [
    {"name": "k", "type": "integer", "bounds": [1, 5]},
    {"name": "weight", "type": "categorical", "levels": ["uniform", "inverse"]},
    {"name": "power", "type": "continuous", "bounds": [0.5, 4.0]},
]
BLOBS = {"dataset": {"blobs": {"n_rows": 40, "seed": 1}}}
ABSENT_CSV = {"csv": "absent-dataset.csv", "label": "y"}


def knn_space(i: int, **changes) -> list[dict]:
    """KNN_SPACE with entry i changed."""
    return [dict(v, **changes) if j == i else v for j, v in enumerate(KNN_SPACE)]


def knn_objective(blobs: dict | None = None, **fields) -> dict:
    """A k-NN objective on BLOBS, with the blobs params and the knn fields changed."""
    dataset = {"blobs": {**BLOBS["dataset"]["blobs"], **(blobs or {})}}
    return {"knn": {"dataset": dataset, **fields}}


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"objective": {"builtin": "sphere"}}, "objective.builtin"),
        ({"objective": {"knn": "x"}}, "objective.knn"),
        ({"objective": {"builtin": {"name": "noisy", "params": {"sigma": "x"}}}}, "noisy.sigma"),
        ({"objective": {"builtin": {"name": "noisy", "params": {"sigma": True}}}}, "noisy.sigma"),
        ({"objective": {"builtin": {"name": "sphere", "params": {"sigmaa": 1}}}}, "sigmaa"),
        ({"objective": {"builtin": {"name": "sphere", "parms": {}}}}, "parms"),
        ({"objective": {"builtin": {"name": "cliff", "params": {"fail_var": 5, "fail_above": 0.0}}}}, "cliff.fail_var"),
        ({"objective": {"builtin": {"name": "cliff", "params": {"fail_var": "z", "fail_above": 0.0}}}}, "cliff.fail_var"),
        ({"objective": {"builtin": {"name": "cliff", "params": {"fail_var": 0}}}}, "cliff.fail_above"),
        ({"objective": {"external": {"command": ""}}}, "external.command"),
        ({"objective": {"external": {"command": "true", "timeout_ms": True}}}, "external.timeout_ms"),
        ({"objective": {"external": {"command": "true", "timeout": 5}}}, "timeout"),
        ({"space": KNN_SPACE, "objective": {"knn": {**BLOBS, "validation": 0.3}}}, "validation"),
        ({"space": KNN_SPACE, "objective": {"knn": {"dataset": {"blobs": {"foo": 1}}}}}, "foo"),
        ({"space": knn_space(0, bounds=[0, 5]), "objective": {"knn": BLOBS}}, "variable 'k'"),
        ({"space": knn_space(0, type="continuous", bounds=[1.0, 5.0]), "objective": {"knn": BLOBS}}, "variable 'k'"),
        ({"space": KNN_SPACE[1:], "objective": {"knn": BLOBS}}, "variable 'k'"),
        ({"space": knn_space(1, levels=["uniform", "foo"]), "objective": {"knn": BLOBS}}, "variable 'weight'"),
        ({"space": knn_space(2, bounds=[0.0, 4.0]), "objective": {"knn": BLOBS}}, "variable 'power'"),
        ({"space": knn_space(2, type="integer", bounds=[1, 4]), "objective": {"knn": BLOBS}}, "variable 'power'"),
        ({"space": KNN_SPACE, "objective": knn_objective({"n_rows": "x"})}, "knn.dataset.blobs.n_rows"),
        ({"space": KNN_SPACE, "objective": knn_objective({"n_features": 0})}, "knn.dataset.blobs.n_features"),
        ({"space": KNN_SPACE, "objective": knn_objective({"sigma": "x"})}, "knn.dataset.blobs.sigma"),
        ({"space": KNN_SPACE, "objective": knn_objective(validation_fraction="x")}, "knn.validation_fraction"),
        ({"space": KNN_SPACE, "objective": knn_objective(validation_fraction=1.0)}, "knn.validation_fraction"),
        ({"space": KNN_SPACE, "objective": knn_objective(partition_seed="x")}, "knn.partition_seed"),
        ({"space": KNN_SPACE, "objective": knn_objective(stratified="no")}, "knn.stratified"),
        ({"space": KNN_SPACE, "objective": {"knn": {"dataset": {"csv": "data.csv"}}}}, "knn.dataset.label"),
        ({"objective": {"external": {"command": "''"}}}, "external.command"),
        ({"objective": {"external": {"command": "python 'x"}}}, "external.command"),
        ({"space": KNN_SPACE, "objective": {"knn": {"dataset": ABSENT_CSV}}}, "knn.dataset.csv"),
        (
            {"space": KNN_SPACE, "objective": {"knn": {"dataset": {**ABSENT_CSV, **BLOBS["dataset"]}}}},
            "knn.dataset has unknown key 'blobs'",
        ),
    ],
)
def test_tune_bad_objective_field_exit_1_before_any_evaluation(tmp_path: Path, overrides, field):
    config = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "o"
    result = run_cli("tune", "--config", str(config), "--out", str(out))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # a handled error, not a traceback
    assert result.output.startswith("error: ") and field in result.output
    assert not (out / "history.csv").exists()


def test_tune_and_bench_build_each_objective_once(tmp_path: Path, monkeypatch):
    built: list[int] = []

    def counting_build(spec, space, seed=0):
        built.append(seed)
        return build_objective(spec, space, seed)

    monkeypatch.setattr(cli, "build_objective", counting_build)
    config = write_config(tmp_path / "cfg.json")
    result = run_cli("tune", "--config", str(config), "--out", str(tmp_path / "o"))
    assert result.exit_code == 0, result.output
    assert built == [3]
    built.clear()
    config = write_config(
        tmp_path / "cfg2.json",
        solvers=[{"type": "random"}, {"type": "lhs", "params": {"n": 20}}],
        budget={"evaluations": 5, "concurrency": 1},
    )
    result = run_cli("bench", "--config", str(config), "--seeds", "2", "--out", str(tmp_path / "b"))
    assert result.exit_code == 0, result.output
    assert built == [3, 4]  # one per seed, shared by both solver setups


def test_tune_missing_external_command_is_data_not_crash(tmp_path: Path):
    config = write_config(
        tmp_path / "cfg.json",
        objective={"external": {"command": "/no/such/binary", "timeout_ms": 500}},
        budget={"evaluations": 5, "concurrency": 1},
    )
    out = tmp_path / "out"
    result = run_cli("tune", "--config", str(config), "--out", str(out))
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status_counts"]["fail"] == 5
    assert summary["best"] is None
    assert "no successful evaluations" in result.output
    history = (out / "history.csv").read_text()
    assert history.count("fail(nonzero_exit)") == 5


def test_tune_byte_identical_history_for_same_seed(tmp_path: Path):
    config = write_config(tmp_path / "cfg.json", solvers=[{"type": "hybrid"}])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("tune", "--config", str(config), "--out", str(out_a)).exit_code == 0
    assert run_cli("tune", "--config", str(config), "--out", str(out_b)).exit_code == 0
    # wall times are measured, so they are the one column allowed to differ
    history_a, history_b = ((out / "history.csv").read_text() for out in (out_a, out_b))
    assert strip_wall_time(history_a) == strip_wall_time(history_b)


def test_tune_seed_override_changes_history(tmp_path: Path):
    config = write_config(tmp_path / "cfg.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("tune", "--config", str(config), "--out", str(out_a))
    run_cli("tune", "--config", str(config), "--out", str(out_b), "--seed", "99")
    history_a, history_b = ((out / "history.csv").read_text() for out in (out_a, out_b))
    assert strip_wall_time(history_a) != strip_wall_time(history_b)


def test_convergence_csv_non_increasing(tmp_path: Path):
    config = write_config(tmp_path / "cfg.json", solvers=[{"type": "hybrid"}])
    out = tmp_path / "out"
    run_cli("tune", "--config", str(config), "--out", str(out))
    rows = (out / "convergence.csv").read_text().splitlines()[1:]
    bests = [float(line.split(",")[1]) for line in rows]
    assert bests, "convergence data expected"
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))


# -- bench ------------------------------------------------------------------------------


def test_bench_rows_and_summary(tmp_path: Path):
    config = write_config(
        tmp_path / "cfg.json",
        solvers=[{"type": "random"}, {"type": "hybrid"}],
        budget={"evaluations": 15, "concurrency": 1},
    )
    out = tmp_path / "bench"
    result = run_cli("bench", "--config", str(config), "--seeds", "3", "--out", str(out))
    assert result.exit_code == 0, result.output
    rows = (out / "bench.csv").read_text().splitlines()
    assert rows[0] == "solver,seed,best_objective,evals_used,wall_time_ms"
    assert len(rows) == 1 + 2 * 3
    summary_rows = (out / "bench_summary.csv").read_text().splitlines()
    assert len(summary_rows) == 3  # header + 2 solvers
    assert "median_best" in result.output


def test_bench_identical_solvers_identical_results(tmp_path: Path):
    config = write_config(
        tmp_path / "cfg.json",
        solvers=[
            {"type": "random", "label": "r-one"},
            {"type": "random", "label": "r-two"},
        ],
        budget={"evaluations": 10, "concurrency": 1},
    )
    out = tmp_path / "bench"
    result = run_cli("bench", "--config", str(config), "--seeds", "2", "--out", str(out))
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in (out / "bench.csv").read_text().splitlines()[1:]]
    by_label = {}
    for label, seed, best, evals, _wall in rows:
        by_label.setdefault(label, []).append((seed, best, evals))
    assert by_label["r-one"] == by_label["r-two"]


def test_bench_duplicate_solver_labels_exit_1(tmp_path: Path):
    config = write_config(
        tmp_path / "cfg.json",
        solvers=[{"type": "random", "label": "a"}, {"type": "lhs", "label": "a"}],
        budget={"evaluations": 10, "concurrency": 1},
    )
    out = tmp_path / "bench"
    result = run_cli("bench", "--config", str(config), "--seeds", "2", "--out", str(out))
    assert result.exit_code == 1, result.output
    assert "solver label 'a' names more than one solver" in result.output
    assert not out.exists()


def test_bench_requires_two_solvers(tmp_path: Path):
    config = write_config(tmp_path / "cfg.json")
    result = run_cli("bench", "--config", str(config), "--seeds", "2")
    assert result.exit_code == 1


# -- simulate-allocation -----------------------------------------------------------------


def test_simulate_allocation_table_and_optimum(tmp_path: Path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "grid": 32,
                "batch": 64,
                "iterations": 1,
                "model": {"t_serial": 64.0, "c_comm": 1.0, "t_fixed": 1.0},
            }
        ),
        encoding="utf-8",
    )
    result = run_cli("simulate-allocation", "--scenario", str(scenario))
    assert result.exit_code == 0, result.output
    assert "optimal w=1" in result.output
    assert "130.0" in result.output


def test_simulate_allocation_fits_observations(tmp_path: Path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "grid": 8,
                "batch": 4,
                "observations": [[1, 65.0], [2, 34.0], [4, 20.0], [8, 16.0]],
            }
        ),
        encoding="utf-8",
    )
    result = run_cli("simulate-allocation", "--scenario", str(scenario))
    assert result.exit_code == 0, result.output
    assert "residual" in result.output


def test_simulate_allocation_grid_one(tmp_path: Path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"grid": 1, "batch": 2, "model": {"t_serial": 10, "c_comm": 0, "t_fixed": 1}}),
        encoding="utf-8",
    )
    result = run_cli("simulate-allocation", "--scenario", str(scenario))
    assert result.exit_code == 0
    table_rows = [l for l in result.output.splitlines() if l.strip().startswith("1 ")]
    assert len(table_rows) == 1
    assert "optimal w=1" in result.output


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"grid": 4.7}, "grid"),
        ({"grid": True}, "grid"),
        ({"batch": "8"}, "batch"),
        ({"iterations": 0}, "iterations"),
        ({"model": {"t_serial": "10", "c_comm": 0, "t_fixed": 1}}, "model.t_serial"),
        ({"model": {"t_serial": float("nan"), "c_comm": 0, "t_fixed": 1}}, "model.t_serial"),
        ({"model": {"t_serial": 10, "c_comm": 0, "t_fixed": float("inf")}}, "model.t_fixed"),
        ({"observations": [[1, 65.0], ["2", 34.0], [4, 20.0]]}, "observations workers"),
        ({"model": {"t_serial": 10, "c_comm": 0, "t_fixed": 1}, "seed": 1}, "scenario has unknown key 'seed'"),
        ({"model": {"t_serial": 10, "c_comm": 0, "t_fixed": 1, "t_seral": 5}}, "model has unknown key 't_seral'"),
        (
            {"model": {"t_serial": 10, "c_comm": 0, "t_fixed": 1}, "observations": [[1, 65.0], [2, 34.0], [4, 20.0]]},
            "scenario gives both 'model' and 'observations'",
        ),
    ],
)
def test_simulate_allocation_bad_field_exit_1(tmp_path: Path, overrides, field):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"grid": 4, "batch": 2, **overrides}), encoding="utf-8")
    result = run_cli("simulate-allocation", "--scenario", str(scenario))
    assert result.exit_code == 1, result.output
    assert f"invalid scenario: {field}" in result.output
    assert "optimal" not in result.output


def test_simulate_allocation_invalid_scenario(tmp_path: Path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"grid": 0, "batch": 1}), encoding="utf-8")
    assert run_cli("simulate-allocation", "--scenario", str(scenario)).exit_code == 1
    assert run_cli("simulate-allocation", "--scenario", str(tmp_path / "nope.json")).exit_code == 1
