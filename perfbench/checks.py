"""Checks on the files one `tune` invocation writes, against the oracles.

Every check returns a list of problems; an empty list means the outputs are
right. Nothing is compared against a saved copy of earlier outputs.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles

# Relative tolerance of an objective value against its oracle. The oracles
# sum in another order than numpy does, which moves the last digits.
OBJECTIVE_RTOL = 1e-9
# The last fitted GP must reproduce its training targets to within this share
# of the targets' standard deviation. Its noise variance is 1e-6 of the signal
# variance, but the kernel matrix is ill-conditioned, so the misses reach a few
# thousandths of a standard deviation.
GP_TRAIN_TOL = 2e-2
# Agreement of the GP posterior with the dense-solve oracle, relative to the
# signal standard deviation (mean) and the signal variance (variance).
GP_POSTERIOR_TOL = 1e-6
KEY_DIGITS = 12


def read_history(path: Path) -> tuple[list[str], list[dict]]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def point_of(space: list[dict], row: dict) -> list:
    values = []
    for var in space:
        cell = row[var["name"]]
        if var["type"] == "continuous":
            values.append(float(cell))
        elif var["type"] == "integer":
            values.append(int(cell))
        else:
            values.append(cell)
    return values


def in_bounds(var: dict, value) -> bool:
    if var["type"] == "categorical":
        return value in var["levels"]
    lo, hi = var["bounds"]
    return lo <= value <= hi


def check_history(space: list[dict], budget: int, header: list[str], rows: list[dict]) -> list[str]:
    problems = []
    names = [v["name"] for v in space]
    expected = ["eval_id", "iteration", "solver_id", *names, "objective", "status", "wall_time_ms"]
    if header != expected:
        return [f"history.csv header {header} != {expected}"]
    if len(rows) != budget:
        problems.append(f"history.csv has {len(rows)} rows, budget is {budget}")
    ids = [int(r["eval_id"]) for r in rows]
    if ids != list(range(1, len(rows) + 1)):
        problems.append("history.csv eval_ids are not 1..N in order")
    seen = set()
    for row in rows:
        point = point_of(space, row)
        bad = [v["name"] for v, x in zip(space, point) if not in_bounds(v, x)]
        if bad:
            problems.append(f"eval {row['eval_id']}: {bad} out of bounds")
        key = tuple(round(c, KEY_DIGITS) for c in oracles.unit_encode(space, point))
        if key in seen:
            problems.append(f"eval {row['eval_id']}: duplicate point {point}")
        seen.add(key)
        if row["status"] != "ok":
            problems.append(f"eval {row['eval_id']}: status {row['status']}")
    return problems[:10]


def read_convergence(path: Path) -> list[tuple[int, float]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return [(int(r["eval_id"]), float(r["best_so_far"])) for r in csv.DictReader(fh)]


def check_convergence(rows: list[dict], got: list[tuple[int, float]], summary: Path) -> list[str]:
    problems = []
    expected, best = [], math.inf
    for row in rows:
        best = min(best, float(row["objective"]))
        expected.append((int(row["eval_id"]), best))
    if got != expected:
        problems.append("convergence.csv is not the running minimum of history.csv")
    data = json.loads(summary.read_text(encoding="utf-8"))
    if data["best"] is None or data["best"]["objective"] != best:
        problems.append(f"summary.json best {data['best']} != history minimum {best}")
    if data["evaluations"] != len(rows) or data["status_counts"] != {"ok": len(rows), "fail": 0}:
        problems.append("summary.json counters disagree with history.csv")
    return problems


def sample_rows(rows: list[dict], count: int) -> list[dict]:
    """The first and last rows, the best one, and evenly spaced rows between."""
    if count >= len(rows):
        return rows
    picks = {0, len(rows) - 1, min(range(len(rows)), key=lambda i: float(rows[i]["objective"]))}
    picks.update(round(i * (len(rows) - 1) / (count - 1)) for i in range(count))
    return [rows[i] for i in sorted(picks)]


def check_objectives(space: list[dict], oracle, rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        want = oracle(point_of(space, row))
        got = float(row["objective"])
        if not math.isclose(got, want, rel_tol=OBJECTIVE_RTOL, abs_tol=1e-12):
            problems.append(f"eval {row['eval_id']}: objective {got!r} != oracle {want!r}")
    return problems


def check_gp(space: list[dict], rows: list[dict], gp_path: Path) -> list[str]:
    """The last fitted GP against the history it was fitted on and the
    dense-solve posterior."""
    gp = json.loads(gp_path.read_text(encoding="utf-8"))
    categorical = [v["type"] == "categorical" for v in space]
    by_coords = {
        tuple(round(c, KEY_DIGITS) for c in oracles.unit_encode(space, point_of(space, r))): float(r["objective"])
        for r in rows
    }
    try:
        train_y = np.array([by_coords[tuple(round(c, KEY_DIGITS) for c in x)] for x in gp["train_x"]])
    except KeyError:
        return ["GP training rows are not points of history.csv"]
    train_x = np.array(gp["train_x"])
    problems = []
    length_scale, signal_var = oracles.gp_hyperparameters(train_x, train_y, categorical)
    if not math.isclose(gp["length_scale"], length_scale, rel_tol=1e-9):
        problems.append(f"GP length scale {gp['length_scale']} != oracle {length_scale}")
    if not math.isclose(gp["signal_var"], signal_var, rel_tol=1e-9):
        problems.append(f"GP signal variance {gp['signal_var']} != oracle {signal_var}")
    if not math.isclose(gp["prior_mean"], float(np.mean(train_y)), rel_tol=1e-9):
        problems.append("GP prior mean is not the mean of its training targets")
    steps = math.log10(gp["jitter"] / gp["noise_var"])
    if gp["noise_var"] != 1e-6 * gp["signal_var"] or abs(steps - round(steps)) > 1e-9:
        problems.append(f"GP jitter {gp['jitter']} is not noise variance x 10^k")
    sd = math.sqrt(gp["signal_var"])
    worst = float(np.max(np.abs(np.array(gp["train_mean"]) - train_y))) / float(np.std(train_y))
    if worst > GP_TRAIN_TOL:
        problems.append(f"GP misses a training target by {worst:.3g} target sd")
    mean, var = oracles.dense_gp_posterior(
        train_x, train_y, np.array(gp["queries"]), length_scale, signal_var, gp["jitter"], categorical
    )
    if np.max(np.abs(mean - np.array(gp["query_mean"]))) > GP_POSTERIOR_TOL * sd:
        problems.append("GP posterior mean differs from the dense-solve oracle")
    if np.max(np.abs(var - np.array(gp["query_var"]))) > GP_POSTERIOR_TOL * gp["signal_var"]:
        problems.append("GP posterior variance differs from the dense-solve oracle")
    return problems


def histories_match(a: list[dict], b: list[dict]) -> bool:
    """Same rows in every column except wall_time_ms."""

    def strip(rows: list[dict]) -> list[dict]:
        return [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in rows]

    return strip(a) == strip(b)


def evals_to_target(convergence: list[tuple[int, float]], target: float) -> int | None:
    """The first eval_id whose best-so-far reaches the target."""
    return next((eval_id for eval_id, best in convergence if best <= target), None)
