"""Command-line entry point.

    tunekit tune --config cfg.json [--out DIR] [--seed N]
    tunekit bench --config cfg.json --seeds N [--out DIR]
    tunekit simulate-allocation --scenario scenario.json

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import click

from .config import ConfigError, RunConfig, instantiate_solvers, load_run_config
from .manager import Objective, TuningManager, check_keys, check_param
from .objectives import build_objective
from .schedsim import AllocationPlan, CostModel, best_allocation, fit_cost_model, makespan
from .trials import TuningHistory, write_csv


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _run_once(config: RunConfig, seed: int, objective: Objective, solvers: list) -> TuningHistory:
    manager = TuningManager(config.space)
    for setup, solver in solvers:
        solver_id = manager.register_solver(solver, share_in=setup.share)
        # label the records with the config's name for the solver
        solver.solver_id = setup.label or solver_id
    return manager.run(objective, config.budget, seed)


@click.group()
def main() -> None:
    """Derivative-free black-box tuning toolkit."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--seed", default=None, type=int)
def tune(config_path: str, out_dir: str | None, seed: int | None) -> None:
    """Run one tuning job and write history.csv, convergence.csv, summary.json."""
    try:
        config = load_run_config(config_path, out_override=out_dir, seed_override=seed)
        objective = build_objective(config.objective_spec, config.space, config.seed)
        solvers = instantiate_solvers(config, config.seed)
    except (ConfigError, ValueError, KeyError) as exc:
        _fail(1, str(exc))
        return

    try:
        history = _run_once(config, config.seed, objective, solvers)
        out = config.out_dir or Path(".")
        out.mkdir(parents=True, exist_ok=True)
        history.write_history_csv(out / "history.csv")
        history.write_convergence_csv(out / "convergence.csv")
        history.write_summary_json(out / "summary.json")
    except Exception as exc:  # anything past config validation is a runtime error
        _fail(2, f"{type(exc).__name__}: {exc}")
        return

    best = history.best_record()
    if best is None:
        click.echo("no successful evaluations (all records failed)")
    else:
        click.echo(f"best point: {config.space.to_dict(best.point)}")
        click.echo(f"best objective: {best.objective!r}")
    click.echo(f"wrote {out / 'history.csv'}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seeds", "n_seeds", required=True, type=int)
@click.option("--out", "out_dir", default=None, type=click.Path())
def bench(config_path: str, n_seeds: int, out_dir: str | None) -> None:
    """Run every configured solver setup over a range of seeds and compare."""
    try:
        config = load_run_config(config_path, out_override=out_dir)
        if len(config.solvers) < 2:
            raise ConfigError("bench needs at least 2 solver setups to compare")
        if n_seeds < 1:
            raise ConfigError("--seeds must be >= 1")
        # one objective per seed, shared by every solver setup's run
        objectives = [
            build_objective(config.objective_spec, config.space, config.seed + i)
            for i in range(n_seeds)
        ]
        # every setup runs alone, seeded as a config holding only that setup
        solver_sets = [
            [
                instantiate_solvers(dataclasses.replace(config, solvers=(setup,)), config.seed + i)
                for i in range(n_seeds)
            ]
            for setup in config.solvers
        ]
    except (ConfigError, ValueError, KeyError) as exc:
        _fail(1, str(exc))
        return

    rows = []
    try:
        for setup, per_seed in zip(config.solvers, solver_sets):
            for i, solvers in enumerate(per_seed):
                seed = config.seed + i
                started = time.perf_counter()
                history = _run_once(config, seed, objectives[i], solvers)
                wall_ms = int((time.perf_counter() - started) * 1000)
                best = history.best_record()
                rows.append(
                    {
                        "solver": setup.label,
                        "seed": seed,
                        "best_objective": best.objective if best else None,
                        "evals_used": history.evaluations,
                        "wall_time_ms": wall_ms,
                    }
                )
        out = config.out_dir or Path(".")
        out.mkdir(parents=True, exist_ok=True)
        _write_bench_csv(out / "bench.csv", rows)
        summary = _bench_summary(rows)
        _write_summary_csv(out / "bench_summary.csv", summary)
    except Exception as exc:
        _fail(2, f"{type(exc).__name__}: {exc}")
        return

    click.echo(f"{'solver':<20} {'mean_best':>14} {'median_best':>14} {'runs':>5}")
    for label, stats in summary.items():
        click.echo(
            f"{label:<20} {stats['mean_best']:>14.6g} {stats['median_best']:>14.6g} {stats['runs']:>5}"
        )
    click.echo(f"wrote {out / 'bench.csv'}")


def _write_bench_csv(path: Path, rows: list[dict]) -> None:
    write_csv(
        path,
        ["solver", "seed", "best_objective", "evals_used", "wall_time_ms"],
        (
            [
                row["solver"],
                str(row["seed"]),
                "" if row["best_objective"] is None else repr(row["best_objective"]),
                str(row["evals_used"]),
                str(row["wall_time_ms"]),
            ]
            for row in rows
        ),
    )


def _bench_summary(rows: list[dict]) -> dict[str, dict]:
    import statistics

    by_solver: dict[str, list[float]] = {}
    for row in rows:
        if row["best_objective"] is not None:
            by_solver.setdefault(row["solver"], []).append(row["best_objective"])
    summary = {}
    for label in sorted(by_solver):
        values = by_solver[label]
        summary[label] = {
            "mean_best": statistics.fmean(values),
            "median_best": statistics.median(values),
            "runs": len(values),
        }
    return summary


def _write_summary_csv(path: Path, summary: dict[str, dict]) -> None:
    write_csv(
        path,
        ["solver", "mean_best", "median_best", "runs"],
        (
            [label, repr(stats["mean_best"]), repr(stats["median_best"]), str(stats["runs"])]
            for label, stats in summary.items()
        ),
    )


_SCENARIO_KEYS = ("grid", "batch", "iterations", "model", "observations")
_MODEL_KEYS = ("t_serial", "c_comm", "t_fixed")


@main.command("simulate-allocation")
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
def simulate_allocation(scenario_path: str) -> None:
    """Print makespan per workers-per-train for a grid/batch scenario."""
    try:
        raw = check_keys("scenario", json.loads(Path(scenario_path).read_text(encoding="utf-8")), _SCENARIO_KEYS)
        grid, batch, iterations = raw["grid"], raw["batch"], raw.get("iterations", 1)
        for name, value in (("grid", grid), ("batch", batch), ("iterations", iterations)):
            check_param(name, value, integer=True, minimum=1)
        if "model" in raw and "observations" in raw:
            raise ValueError("scenario gives both 'model' and 'observations'; give one of them")
        if "model" in raw:
            model_raw = check_keys("model", raw["model"], _MODEL_KEYS)
            params = [model_raw[name] for name in _MODEL_KEYS]
            for name, value in zip(_MODEL_KEYS, params):
                check_param(f"model.{name}", value, integer=False, minimum=0)
            model = CostModel(*(float(v) for v in params))
            residual = None
        elif "observations" in raw:
            for w, t in raw["observations"]:
                check_param("observations workers", w, integer=True, minimum=1)
                check_param("observations time", t, integer=False, minimum=0)
            model, residual = fit_cost_model([(w, float(t)) for w, t in raw["observations"]])
        else:
            raise ValueError("scenario needs either 'model' or 'observations'")
    except FileNotFoundError:
        _fail(1, f"scenario file not found: {scenario_path}")
        return
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        _fail(1, f"invalid scenario: {exc}")
        return

    if residual is not None:
        click.echo(
            f"fitted cost model: t_serial={model.t_serial:.6g} c_comm={model.c_comm:.6g} "
            f"t_fixed={model.t_fixed:.6g} (residual {residual:.6g})"
        )
    click.echo(f"{'w':>5} {'slots':>6} {'t(w)':>12} {'makespan':>12}")
    for w in range(1, grid + 1):
        plan = AllocationPlan(grid, w, batch)
        span = makespan(plan, iterations, model)
        click.echo(f"{w:>5} {plan.parallel_slots:>6} {model.train_time(w):>12.4f} {span:>12.4f}")
    best = best_allocation(grid, batch, iterations, model)
    click.echo(
        f"optimal w={best.workers_per_train} "
        f"(slots={best.parallel_slots}, makespan={makespan(best, iterations, model)!r})"
    )


if __name__ == "__main__":
    main()
