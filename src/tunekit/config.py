"""Run configuration: the JSON schema behind the CLI.

A run config looks like:

    {
      "space": [
        {"name": "x", "type": "continuous", "bounds": [-5.0, 5.0]},
        {"name": "k", "type": "integer", "bounds": [1, 31]},
        {"name": "w", "type": "categorical", "levels": ["uniform", "inverse"]}
      ],
      "objective": {"builtin": {"name": "sphere"}},
      "budget": {"evaluations": 100, "concurrency": 4},
      "solvers": [{"type": "hybrid", "share": true, "params": {}}],
      "seed": 7,
      "out": "runs/example"
    }

Every JSON object of it takes only the keys shown (a variable only those of
its type), and variable names are strings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .manager import check_keys, check_param
from .solvers import SOLVERS, make_solver
from .space import CategoricalVariable, ContinuousVariable, IntegerVariable, SearchSpace
from .trials import Budget


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SolverSetup:
    type: str
    params: dict = field(default_factory=dict)
    share: bool = True
    label: str = ""


@dataclass(frozen=True)
class RunConfig:
    space: SearchSpace
    objective_spec: dict
    budget: Budget
    solvers: tuple[SolverSetup, ...]
    seed: int
    out_dir: Path | None


# The keys each JSON object of a run config takes.
_CONFIG_KEYS = ("space", "objective", "budget", "solvers", "seed", "out")
_BUDGET_KEYS = ("evaluations", "concurrency")
_SOLVER_KEYS = ("type", "share", "label", "params")
_VARIABLE_KEYS = {
    "continuous": ("name", "type", "bounds"),
    "integer": ("name", "type", "bounds"),
    "categorical": ("name", "type", "levels"),
}


def build_space(entries: list[dict]) -> SearchSpace:
    variables = []
    for i, entry in enumerate(entries):
        try:
            kind = entry["type"]
            if kind not in _VARIABLE_KEYS:
                raise ConfigError(f"unknown variable type {kind!r} for {entry.get('name')!r}")
            check_keys(f"space[{i}]", entry, _VARIABLE_KEYS[kind])
            name = entry["name"]
            if not isinstance(name, str):
                raise ConfigError(f"space[{i}].name must be a string, got {name!r}")
            if kind in ("continuous", "integer"):
                lo, hi = entry["bounds"]
                for bound in (lo, hi):
                    check_param(f"{name}.bounds", bound, integer=kind == "integer", minimum=-math.inf)
            if kind == "continuous":
                variables.append(ContinuousVariable(name, float(lo), float(hi)))
            elif kind == "integer":
                variables.append(IntegerVariable(name, lo, hi))
            else:
                levels = entry["levels"]
                if not isinstance(levels, list) or not all(isinstance(level, str) for level in levels):
                    raise ConfigError(f"{name}.levels must be a JSON list of strings, got {levels!r}")
                variables.append(CategoricalVariable(name, tuple(levels)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad variable entry {entry!r}: {exc}") from None
    try:
        return SearchSpace(variables)
    except (ValueError, OverflowError) as exc:  # the encoding holds bounds as floats
        raise ConfigError(str(exc)) from None


def parse_run_config(raw: dict, *, out_override: str | None = None, seed_override: int | None = None) -> RunConfig:
    try:
        raw = check_keys("config", raw, _CONFIG_KEYS)
        space = build_space(raw["space"])
        objective_spec = raw["objective"]
        budget_raw = check_keys("budget", raw.get("budget", {}), _BUDGET_KEYS)
        evaluations = budget_raw.get("evaluations", 100)
        concurrency = budget_raw.get("concurrency", 1)
        check_param("budget.evaluations", evaluations, integer=True, minimum=1)
        check_param("budget.concurrency", concurrency, integer=True, minimum=1)
        budget = Budget(max_evaluations=evaluations, max_concurrency=concurrency)
        solver_entries = raw.get("solvers", [])
        if not solver_entries:
            raise ConfigError("config needs at least one solver")
        setups = []
        for i, entry in enumerate(solver_entries):
            entry = check_keys(f"solvers[{i}]", entry, _SOLVER_KEYS)
            solver_type = entry.get("type")
            if solver_type not in SOLVERS:
                raise ConfigError(f"unknown solver type {solver_type!r}")
            share = entry.get("share", True)
            if not isinstance(share, bool):
                raise ConfigError(f"solvers[{i}].share must be true or false, got {share!r}")
            label = entry.get("label", f"{solver_type}-{i}")
            if not isinstance(label, str):
                raise ConfigError(f"solvers[{i}].label must be a string, got {label!r}")
            params = entry.get("params", {})
            if not isinstance(params, dict):
                raise ConfigError(f"solvers[{i}].params must be a JSON object, got {params!r}")
            setups.append(SolverSetup(type=solver_type, params=dict(params), share=share, label=label))
        seed = raw.get("seed", 0) if seed_override is None else seed_override
        check_param("seed", seed, integer=True, minimum=0)
        labels = [setup.label for setup in setups]
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(f"solver label {label!r} names more than one solver")
        out = out_override if out_override is not None else raw.get("out")
        return RunConfig(
            space=space,
            objective_spec=objective_spec,
            budget=budget,
            solvers=tuple(setups),
            seed=seed,
            out_dir=Path(out) if out is not None else None,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from None


def load_run_config(path: str | Path, **overrides) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_run_config(raw, **overrides)


def instantiate_solvers(config: RunConfig, seed: int) -> list[tuple[SolverSetup, object]]:
    """Build one seeded solver per setup; LHS design size defaults to the
    evaluation budget (sample size equals budget in the sampling protocols).

    The solver's constructor checks its params: an unknown name or a bad value
    raises ConfigError naming the solver type."""
    seeds = np.random.SeedSequence(seed).spawn(len(config.solvers))
    built = []
    for setup, seq in zip(config.solvers, seeds):
        params = dict(setup.params)
        if setup.type == "lhs":
            params.setdefault("n", config.budget.max_evaluations)
        solver_seed = int(seq.generate_state(1)[0])
        try:
            solver = make_solver(setup.type, config.space, solver_seed, params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {setup.type} params: {exc}") from None
        built.append((setup, solver))
    return built
