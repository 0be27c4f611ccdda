"""Benchmark of tunekit's tuning cost and search quality.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]

Each operation is one `tunekit tune` invocation of the workload's run config
(perfbench/configs/NAME.json) in a fresh interpreter (perfbench/child.py);
invocations run one after another. A run repeats whole rounds, one invocation
per seed of the workload's panel, until --seconds would be exceeded (at least
one round). --seed sets the order in which the panel's seeds run.

--trace 0 first makes one warm-up invocation of the first seed, which is
checked and counted but not timed, and then the rounds. It prints the
end-to-end metrics: setup_s, run_s and peak_rss_mb are medians over the
rounds' invocations; evals_to_target is the median over the panel's seeds.
The two timings are scaled to the machine's speed. Each invocation times a
fixed reference computation (child.reference_s) right after set-up and right
after the run; setup_s and run_s are the medians of the set-up and run times
times REFERENCE_NOMINAL_S over the mean reference time of the same
invocations. Both read as seconds on a machine that runs the reference in
REFERENCE_NOMINAL_S.

--trace 1 runs each seed untraced and then traced, checks that both write the
same history, and prints the per-layer metrics of the traced invocations
(medians over the run's seeds) and the tracing overhead.

Every invocation's outputs are checked against perfbench/oracles.py. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Each child pins its BLAS pool to one thread, so K=2 workers never run more
# threads than the machine's two cores.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run must end within 180 s: invocations still running this long after the
# run started are stopped and count as failed.
RUN_DEADLINE_S = 170.0
# reference_s() takes about this long on an unloaded 2.1 GHz Xeon vCPU. The
# host this runs on is shared, and its speed moves by more than a factor of
# two within minutes; time over reference time moves far less.
REFERENCE_NOMINAL_S = 0.032


@dataclass(frozen=True)
class Workload:
    name: str
    target: float  # evals_to_target: first eval whose best-so-far is <= target
    panel: int  # solver seeds 0..panel-1
    objective_rows: int  # history rows checked against the objective oracle


WORKLOADS = {
    w.name: w
    for w in (
        Workload("portfolio-zero-cost", target=1e-8, panel=8, objective_rows=3000),
        Workload("bayes-gp", target=10.0, panel=4, objective_rows=300),
        Workload("knn-parallel", target=0.245, panel=4, objective_rows=4),
    )
}

END_TO_END = {"setup_s": "s", "run_s": "s", "evals_to_target": "evals", "peak_rss_mb": "MB"}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Runner:
    """Runs and checks the invocations of one workload."""

    def __init__(self, workload: Workload, work_dir: Path):
        import checks
        import oracles

        self.workload = workload
        self.work_dir = work_dir
        self.config_path = HERE / "configs" / f"{workload.name}.json"
        self.config = json.loads(self.config_path.read_text(encoding="utf-8"))
        self.space = self.config["space"]
        self.budget = self.config["budget"]["evaluations"]
        self.workers = self.config["budget"]["concurrency"]
        self.checks = checks
        spec = self.config["objective"]
        if "builtin" in spec:
            analytic = oracles.ANALYTIC[spec["builtin"]["name"]]
            self.oracle = lambda values: analytic(self.space, values)
        else:
            self.oracle = self._knn_oracle(spec["knn"], oracles)
        self.count = 0
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def _knn_oracle(self, spec: dict, oracles):
        from tunekit.objectives.data import PartitionSpec, make_blobs, partition

        data = make_blobs(**spec["dataset"]["blobs"])
        split = partition(
            data, PartitionSpec(spec["validation_fraction"], spec["partition_seed"], spec["stratified"])
        )
        names = [v["name"] for v in self.space]
        k, weight, power = (names.index(n) for n in ("k", "weight", "power"))

        def oracle(values):
            return oracles.knn_error(
                split.train.features,
                split.train.labels,
                split.validation.features,
                split.validation.labels,
                int(values[k]),
                str(values[weight]),
                float(values[power]),
            )

        return oracle

    def invoke(self, seed: int, trace: bool) -> dict:
        """One invocation; returns its timings, outputs and problems found."""
        self.count += 1
        out = self.work_dir / f"{self.count:03d}-seed{seed}-{'traced' if trace else 'plain'}"
        out.mkdir(parents=True)
        result_path = out / "result.json"
        command = [
            sys.executable,
            str(HERE / "child.py"),
            str(self.config_path),
            str(out),
            str(seed),
            str(result_path),
            "1" if trace else "0",
        ]
        with open(out / "child.log", "wb") as child_log:
            try:
                proc = subprocess.run(
                    command,
                    cwd=ROOT,
                    env={**os.environ, **CHILD_ENV},
                    stdout=child_log,
                    stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - time.perf_counter()),
                )
            except subprocess.TimeoutExpired:
                return {"seed": seed, "problems": ["timed out"], "crashed": True}
        if proc.returncode != 0 or not result_path.exists():
            return {"seed": seed, "problems": [f"child exited {proc.returncode}"], "crashed": True}
        timings = json.loads(result_path.read_text(encoding="utf-8"))
        if timings["exit_code"] != 0:
            return {"seed": seed, "problems": [f"tune exited {timings['exit_code']}"], "crashed": True}
        return {"seed": seed, "out": out, "crashed": False, **timings, **self.check(out)}

    def check(self, out: Path) -> dict:
        c = self.checks
        header, rows = c.read_history(out / "history.csv")
        convergence = c.read_convergence(out / "convergence.csv")
        problems = c.check_history(self.space, self.budget, header, rows)
        problems += c.check_convergence(rows, convergence, out / "summary.json")
        problems += c.check_objectives(
            self.space, self.oracle, c.sample_rows(rows, self.workload.objective_rows)
        )
        if (out / "gp.json").exists():
            problems += c.check_gp(self.space, rows, out / "gp.json")
        elif any(s["type"] == "bayes" for s in self.config["solvers"]):
            problems.append("no fitted GP was recorded")
        reached = c.evals_to_target(convergence, self.workload.target)
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        return {
            "rows": rows,
            "problems": problems,
            "evals_to_target": self.budget + 1 if reached is None else reached,
            "points_asked": summary["points_asked"],
        }


def panel_order(workload: Workload, seed: int) -> list[int]:
    shift = seed % workload.panel
    seeds = list(range(workload.panel))
    return seeds[shift:] + seeds[:shift]


def run_rounds(started: float, seconds: float, round_fn) -> None:
    """Whole rounds until another round would end more than `seconds` after
    `started`; the first round always runs."""
    while True:
        round_started = time.perf_counter()
        round_fn()
        now = time.perf_counter()
        if now - started + (now - round_started) > seconds:
            return


def quality_and_timings(runner: Runner, seeds: list[int], seconds: float) -> tuple[list[dict], dict]:
    started = time.perf_counter()
    done = [runner.invoke(seeds[0], trace=False)]
    log(describe(done[0]) + " (warm-up)")

    def one_round():
        for seed in seeds:
            done.append(runner.invoke(seed, trace=False))
            log(describe(done[-1]))

    run_rounds(started, seconds, one_round)
    timed = [r for r in done[1:] if not r["crashed"]]
    if not timed:
        return done, {}
    first: dict[int, dict] = {}
    for r in done:
        if not r["crashed"]:
            earlier = first.setdefault(r["seed"], r)
            if not runner.checks.histories_match(earlier["rows"], r["rows"]):
                r["problems"].append(f"seed {r['seed']} wrote another history.csv than before")
    reference = statistics.fmean(r[f"reference_{w}_s"] for r in timed for w in ("before", "after"))
    scale = REFERENCE_NOMINAL_S / reference
    metrics = {
        "setup_s": scale * statistics.median(r["setup_s"] for r in timed),
        "run_s": scale * statistics.median(r["run_s"] for r in timed),
        "evals_to_target": statistics.median(r["evals_to_target"] for r in first.values()),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    return done, metrics


def traced_layers(runner: Runner, seeds: list[int], seconds: float) -> tuple[list[dict], dict]:
    import layers

    done: list[dict] = []
    per_seed: list[dict] = []
    order = itertools.cycle(seeds)

    def one_round():
        seed = next(order)
        plain = runner.invoke(seed, trace=False)
        traced = runner.invoke(seed, trace=True)
        done.extend([plain, traced])
        log(describe(plain))
        log(describe(traced))
        if plain["crashed"] or traced["crashed"]:
            return
        if not runner.checks.histories_match(plain["rows"], traced["rows"]):
            traced["problems"].append("traced history.csv differs from the untraced one")
        spans = json.loads((traced["out"] / "spans.json").read_text(encoding="utf-8"))
        if spans["missing"]:
            traced["problems"].append(f"trace targets not found: {spans['missing']}")
            return
        figures = layers.layer_metrics(spans["spans"], runner.budget, traced["points_asked"], runner.workers)
        figures["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        per_seed.append(figures)
        if runner.workload.name == "knn-parallel":
            log(wave_model_line(runner, traced, figures))

    run_rounds(time.perf_counter(), seconds, one_round)
    if not per_seed:
        return done, {}
    return done, {name: statistics.median(f[name] for f in per_seed) for name in layers.PER_LAYER}


def wave_model_line(runner: Runner, traced: dict, figures: dict) -> str:
    """schedsim's barrier-wave makespan for this run's batches beside the
    measured evaluation-phase wall time."""
    from tunekit.schedsim import AllocationPlan, CostModel, makespan

    batches: dict[str, int] = {}
    for row in traced["rows"]:
        batches[row["iteration"]] = batches.get(row["iteration"], 0) + 1
    eval_s = figures["objectives.eval_ms"] / 1000.0
    model = CostModel(t_serial=eval_s, c_comm=0.0, t_fixed=0.0)
    predicted = sum(makespan(AllocationPlan(runner.workers, 1, b), 1, model) for b in batches.values())
    measured = figures["manager.eval_phase_ms_per_eval"] * runner.budget / 1000.0
    return f"wave model: predicted eval phase {predicted:.3f} s, measured {measured:.3f} s"


def describe(r: dict) -> str:
    if r["crashed"]:
        return f"  seed {r['seed']}: FAILED {r['problems']}"
    status = "ok" if not r["problems"] else f"WRONG {r['problems'][:3]}"
    return (
        f"  seed {r['seed']}: setup {r['setup_s']:.3f} s run {r['run_s']:.3f} s "
        f"reference {1000 * r['reference_before_s']:.1f}/{1000 * r['reference_after_s']:.1f} ms "
        f"rss {r['peak_rss_mb']:.1f} MB target@{r['evals_to_target']} {status}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the result line to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tunekit" / "cli.py").is_file():
        log(f"error: no tunekit sources under {ROOT / 'src'}")
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    workload = WORKLOADS[args.workload]
    work_dir = OUT / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runner = Runner(workload, work_dir)
    seeds = panel_order(workload, args.seed)

    if args.trace:
        import layers

        done, values = traced_layers(runner, seeds, args.seconds)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        done, values = quality_and_timings(runner, seeds, args.seconds)
        units = END_TO_END
    if not values:
        log("error: no invocation completed")
        return 1

    result = {
        "correct": not any(r["problems"] for r in done if not r["crashed"]),
        "attempted": len(done),
        "failed": sum(1 for r in done if r["crashed"] or r["problems"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    if args.record is not None:
        with args.record.open("a", encoding="utf-8") as fh:
            record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "result": result}
            fh.write(json.dumps(record) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
