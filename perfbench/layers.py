"""Per-layer metrics from the spans of one traced `tune` invocation.

Per-evaluation figures count only spans inside the `manager.run` span, so
work done while the solvers are built does not mix into them. A function's
`_ms` figures include the calls it makes; `space.ms_per_eval` is the self
time of the space layer, which nests in the solvers, the cache and itself.
"""

from __future__ import annotations

import statistics

from oracles import layer_self_time

SOLVER_TYPES = ("hybrid", "direct", "neldermead", "samplers", "bayes")

# name -> (unit, better)
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "objectives.build_calls": ("count", "lower"),
    "objectives.build_ms": ("ms", "lower"),
    "config.solvers_build_ms": ("ms", "lower"),
    "manager.ask_ms_per_eval": ("ms", "lower"),
    "manager.tell_ms_per_eval": ("ms", "lower"),
    "manager.rest_ms_per_eval": ("ms", "lower"),
    "manager.eval_phase_ms_per_eval": ("ms", "lower"),
    "manager.worker_util": ("ratio", "higher"),
    "manager.worker_idle_ms_per_eval": ("ms", "lower"),
    "manager.new_per_asked": ("ratio", "higher"),
    "cache.key_calls_per_eval": ("count", "lower"),
    "cache.key_ms_per_eval": ("ms", "lower"),
    "space.validate_calls_per_eval": ("count", "lower"),
    "space.encode_calls_per_eval": ("count", "lower"),
    "space.decode_calls_per_eval": ("count", "lower"),
    "space.ms_per_eval": ("ms", "lower"),
    "trials.bookkeeping_ms_per_eval": ("ms", "lower"),
    "trials.write_ms": ("ms", "lower"),
    **{f"solvers.{t}.{op}_ms_per_call": ("ms", "lower") for t in SOLVER_TYPES for op in ("ask", "tell")},
    "solvers.direct.select_entries_per_call": ("count", "lower"),
    "solvers.bayes.fit_ms_per_call": ("ms", "lower"),
    "solvers.bayes.propose_ms_per_call": ("ms", "lower"),
    "solvers.bayes.posterior_calls_per_eval": ("count", "lower"),
    "solvers.bayes.posterior_rows_per_call": ("count", "higher"),
    "solvers.bayes.posterior_ms_per_eval": ("ms", "lower"),
    "sampling.lhs_ms_per_eval": ("ms", "lower"),
    "objectives.eval_ms": ("ms", "lower"),
    "objectives.eval_cpu_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[list], evals: int, points_asked: int, workers: int) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, which needs the
    untraced run too. A layer that did not run reads 0."""
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    run = by_name["manager.run"][0]
    inside = [s for s in spans if run[4] <= s[4] and s[5] <= run[5]]
    within: dict[str, list[list]] = {}
    for s in inside:
        within.setdefault(s[2], []).append(s)

    def total(name: str, pool=within) -> float:
        return sum(s[5] - s[4] for s in pool.get(name, []))

    def per_eval(value: float) -> float:
        return value / evals

    ms = 1000.0
    ask = sum(total(f"solvers.{t}.ask") for t in SOLVER_TYPES)
    tell = sum(total(f"solvers.{t}.tell") for t in SOLVER_TYPES)
    phase = total("manager.evaluate")
    evaluated = total("objectives.eval")
    cpu = [s[7] for s in within.get("objectives.eval", [])]
    rows = [s[6] for s in within.get("solvers.bayes.posterior", [])]
    entries = [s[6] for s in within.get("solvers.direct.select", [])]
    metrics = {
        "cli.import_s": total("cli.import", by_name),
        "objectives.build_calls": float(len(by_name.get("objectives.build", []))),
        "objectives.build_ms": total("objectives.build", by_name) * ms,
        "config.solvers_build_ms": total("config.solvers_build", by_name) * ms,
        "manager.ask_ms_per_eval": per_eval(ask * ms),
        "manager.tell_ms_per_eval": per_eval(tell * ms),
        "manager.rest_ms_per_eval": per_eval((run[5] - run[4] - ask - tell - phase) * ms),
        "manager.eval_phase_ms_per_eval": per_eval(phase * ms),
        "manager.worker_util": evaluated / (workers * phase) if phase else 0.0,
        "manager.worker_idle_ms_per_eval": per_eval((workers * phase - evaluated) * ms),
        "manager.new_per_asked": evals / points_asked,
        "cache.key_calls_per_eval": per_eval(len(within.get("cache.key", []))),
        "cache.key_ms_per_eval": per_eval(total("cache.key") * ms),
        "space.validate_calls_per_eval": per_eval(len(within.get("space.validate", []))),
        "space.encode_calls_per_eval": per_eval(len(within.get("space.encode", []))),
        "space.decode_calls_per_eval": per_eval(len(within.get("space.decode", []))),
        "space.ms_per_eval": per_eval(layer_self_time(inside, "space.") * ms),
        "trials.bookkeeping_ms_per_eval": per_eval(total("trials.bookkeeping") * ms),
        "trials.write_ms": total("trials.write", by_name) * ms,
        "solvers.direct.select_entries_per_call": _mean(entries),
        "solvers.bayes.fit_ms_per_call": _mean([(s[5] - s[4]) * ms for s in within.get("solvers.bayes.fit", [])]),
        "solvers.bayes.propose_ms_per_call": _mean(
            [(s[5] - s[4]) * ms for s in within.get("solvers.bayes.propose", [])]
        ),
        "solvers.bayes.posterior_calls_per_eval": per_eval(len(rows)),
        "solvers.bayes.posterior_rows_per_call": _mean(rows),
        "solvers.bayes.posterior_ms_per_eval": per_eval(total("solvers.bayes.posterior") * ms),
        "sampling.lhs_ms_per_eval": per_eval(total("sampling.lhs") * ms),
        "objectives.eval_ms": _mean([(s[5] - s[4]) * ms for s in within.get("objectives.eval", [])]),
        "objectives.eval_cpu_ms": _mean([c * ms for c in cpu]),
    }
    for t in SOLVER_TYPES:
        for op in ("ask", "tell"):
            calls = within.get(f"solvers.{t}.{op}", [])
            metrics[f"solvers.{t}.{op}_ms_per_call"] = _mean([(s[5] - s[4]) * ms for s in calls])
    return metrics
