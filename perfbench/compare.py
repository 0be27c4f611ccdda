"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines that `run.py --record FILE` appended, one per run.
For every workload and end-to-end metric this prints each side's median and
quartiles, the spread (interquartile distance over the median) of each side,
and whether the new side is within the metric's bound of the base median.
Per-layer metrics of traced runs are listed as medians, without a verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> results in file order."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault((record["workload"], record["trace"]), []).append(record["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """Share by which new is worse than base (negative when better)."""
    if base == 0:
        return 0.0
    return (new - base) / base if better == "lower" else (base - new) / base


def compare(base_path: str, new_path: str) -> bool:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(base_path), load(new_path)
    agree = True
    for workload in [w["name"] for w in bench["workloads"]]:
        a, b = base.get((workload, 0), []), new.get((workload, 0), [])
        print(f"{workload}: {len(a)} base runs, {len(b)} new runs")
        if not a or not b:
            print("  missing runs on one side")
            agree = False
            continue
        for side, runs in (("base", a), ("new", b)):
            share = {r["failed"] / r["attempted"] for r in runs}
            print(f"  {side} failed share per run: {sorted(share)}")
        print(f"  {'metric':<18} {'base q1/med/q3':>30} {'new q1/med/q3':>30} {'spreads':>13} {'worse':>7} {'bound':>5}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            qa, qb = quartiles(va), quartiles(vb)
            worse = worse_by(qa[1], qb[1], metric["better"])
            ok = worse <= bound
            agree &= ok
            print(
                f"  {name:<18} {qa[0]:>10.4g}{qa[1]:>10.4g}{qa[2]:>10.4g} {qb[0]:>10.4g}{qb[1]:>10.4g}{qb[2]:>10.4g}"
                f" {spread(va):>6.3f}{spread(vb):>7.3f} {worse:>+7.3f} {bound:>5.2f} {'agree' if ok else 'DIFFER'}"
            )
        traced_a, traced_b = base.get((workload, 1), []), new.get((workload, 1), [])
        if traced_a and traced_b:
            print(f"  per-layer medians ({len(traced_a)} / {len(traced_b)} traced runs):")
            for metric in bench["per_layer"]:
                name = metric["name"]
                ma = statistics.median(r["metrics"][name]["value"] for r in traced_a)
                mb = statistics.median(r["metrics"][name]["value"] for r in traced_b)
                print(f"    {name:<44} {ma:>12.5g} {mb:>12.5g} {metric['unit']}")
    print("all end-to-end metrics agree within their bounds" if agree else "some metrics differ")
    return agree


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(0 if compare(sys.argv[1], sys.argv[2]) else 1)
