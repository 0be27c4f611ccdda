"""One `tunekit tune` invocation in a fresh interpreter, timed from inside.

    python3 perfbench/child.py CONFIG OUT_DIR SEED RESULT_JSON TRACE

Runs the CLI's `tune` command exactly as the console script does and writes
RESULT_JSON with:

- setup_s: from just before `import tunekit` to the first call into
  `TuningManager.run` (import, config parsing, objective and solver builds)
- run_s: from entry into `TuningManager.run` until `tune` returns with its
  three output files written
- reference_before_s, reference_after_s: the mean time of reference_s()
  over the calls made just before the run and just after it, which measure
  how fast the machine was then
- peak_rss_mb: the interpreter's peak resident memory during `tune`
- exit_code: the CLI's exit status

With TRACE=1 the tracer wraps tunekit's functions before `tune` runs and the
spans go to OUT_DIR/spans.json. When the run used Bayes, the last fitted GP is
written to OUT_DIR/gp.json for the dense-solve check.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

# Query points for the GP check, on the encoded unit cube.
GP_QUERIES = [0.1, 0.35, 0.5, 0.8]
# reference_s() runs this many times just before the run and just after it.
REFERENCE_CALLS = 10


def reference_s() -> float:
    """Seconds taken by a fixed computation that does not touch tunekit:
    interpreted float, dict and list work, then small dense linear algebra,
    the two kinds of work tunekit's run spends its time in. Timed just
    before and just after a run, it measures how fast the machine was then."""
    import numpy as np

    started = time.perf_counter()
    acc = 0.0
    table: dict[int, float] = {}
    items: list[float] = []
    for i in range(200_000):
        acc += math.sqrt(i + 0.5) * 1e-3
        table[i & 1023] = acc
        if i % 7 == 0:
            items.append(acc)
    items.sort()
    a = np.fromfunction(lambda i, j: np.exp(-0.02 * (i - j) ** 2), (80, 80)) + np.eye(80)
    for _ in range(150):
        chol = np.linalg.cholesky(a)
        a[0, 0] += 1e-9 * float(np.linalg.solve(chol, np.ones(80)).sum())
    return time.perf_counter() - started


def dump_gp(model, path: Path) -> None:
    import numpy as np

    d = model.train_x.shape[1]
    queries = np.array([[(q + 0.13 * j) % 1.0 for j in range(d)] for q in GP_QUERIES])
    mean_q, var_q = model.posterior_many(queries)
    mean_t, _ = model.posterior_many(model.train_x)
    payload = {
        "train_x": model.train_x.tolist(),
        "length_scale": model.length_scale,
        "signal_var": model.signal_var,
        "noise_var": model.noise_var,
        "jitter": model.jitter,
        "prior_mean": model.prior_mean,
        "train_mean": mean_t.tolist(),
        "queries": queries.tolist(),
        "query_mean": mean_q.tolist(),
        "query_var": var_q.tolist(),
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


def main(argv: list[str]) -> int:
    config, out_dir, seed, result_path, trace = argv
    out = Path(out_dir)
    trace_on = trace == "1"

    t0 = time.perf_counter()
    import tunekit.cli
    t_import = time.perf_counter()

    tracer = None
    if trace_on:
        from tracer import Tracer

        tracer = Tracer()
        tracer.record("cli.import", t0, t_import)
        tracer.install()

    from tunekit.manager import TuningManager

    set_up: list[float] = []
    entered: list[float] = []
    before: list[float] = []
    after: list[float] = []
    managers: list = []
    inner_run = TuningManager.run

    def run(self, *args, **kwargs):
        set_up.append(time.perf_counter())
        reference_s()
        before.extend(reference_s() for _ in range(REFERENCE_CALLS))
        entered.append(time.perf_counter())
        managers.append(self)
        return inner_run(self, *args, **kwargs)

    TuningManager.run = run
    exit_code = 0
    try:
        tunekit.cli.main(
            ["tune", "--config", config, "--out", out_dir, "--seed", seed], standalone_mode=False
        )
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if entered:
        after.extend(reference_s() for _ in range(REFERENCE_CALLS))
    TuningManager.run = inner_run

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(out / "spans.json")
    for manager in managers:
        for registration in manager._registrations:
            model = getattr(registration.solver, "model", None)
            if model is not None:
                dump_gp(model, out / "gp.json")

    result = {
        "exit_code": exit_code,
        "import_s": t_import - t0,
        "setup_s": set_up[0] - t0 if entered else None,
        "run_s": t_end - entered[0] if entered else None,
        "reference_before_s": statistics.fmean(before) if entered else None,
        "reference_after_s": statistics.fmean(after) if entered else None,
        "peak_rss_mb": peak_rss_mb,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
