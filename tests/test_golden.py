"""Golden histories: `tunekit tune` must keep writing the same history.csv.

Each `golden/<name>.json` is a small run config. Its `golden/<name>.history.csv`
is the history.csv that `tunekit tune` wrote for it at concurrency 1, with the
`wall_time_ms` column removed, at the commit named here:

- cliff-hybrid, portfolio: 1328f5a, before point keys moved from the solvers
  to the manager.
- bayes-direct: the child of 3938b7e, where the GP moved to numpy alone
  (np.linalg.cholesky and a held inverse factor in place of scipy's potrs).
  That moved the last bits of the posterior and 5 of the 40 rows, all at
  or beyond the 6th significant digit. It was first written at b7d3082,
  where Bayes began choosing each batch with the Kriging believer.
- bayes-mixed: 9a2f055, before the GP solves, the mixed distance and the
  simplex vertices moved to held arrays; Bayes and Nelder-Mead on 6
  continuous, 2 integer and 1 categorical channel.
- knn-hybrid: 94b6b80, before the k-NN neighbour lists were computed one
  block of validation rows at a time; hybrid tunes the built-in k-NN learner
  on 450 validation rows, with 9 cache hits and many repeated powers.
- bayes-rosenbrock5: fc162c3, before the simplex engine moved to Python
  floats and each proposal pool's kernel rows were computed once; Bayes
  alone on a 5-d Rosenbrock box, 10 LHS points and 10 proposal batches of 5.
- direct-nm-mixed: 9e76dd2, before the simplex search placed its own
  coordinates into full encoded rows; DIRECT-NM alone (theta 0.5) on 2
  continuous, 1 integer and 1 categorical channel, where one rectangle
  refines for 41 steps with its integer and categorical channels frozen.

Regenerate one, only for an intended change of behaviour, with

    PYTHONPATH=src python tests/test_golden.py NAME...

(no NAME regenerates all of them), and name the commit here.

The determinism contract says a config and seed give the same history at any
concurrency, so each config is run at K=1 and K=4 and compared byte for byte,
wall times aside.
"""

from __future__ import annotations

import functools
import json
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from helpers import strip_wall_time
from tunekit.cli import main
from tunekit.solvers import SOLVERS

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIGS = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))


@functools.lru_cache(maxsize=None)
def run_config(name: str, concurrency: int) -> tuple[str, dict]:
    """(history.csv without wall times, summary.json) of one `tune` run."""
    raw = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    raw["budget"]["concurrency"] = concurrency
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = Path(tmp) / "out"
        result = CliRunner().invoke(main, ["tune", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        history = strip_wall_time((out / "history.csv").read_text(encoding="utf-8"))
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    return history, summary


@pytest.mark.parametrize("concurrency", [1, 4])
@pytest.mark.parametrize("name", CONFIGS)
def test_history_matches_golden(name, concurrency):
    history, _ = run_config(name, concurrency)
    golden = (GOLDEN_DIR / f"{name}.history.csv").read_text(encoding="utf-8")
    assert history == golden


def test_goldens_cover_every_solver_type_sharing_and_cache_hits():
    entries = [
        entry
        for name in CONFIGS
        for entry in json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))["solvers"]
    ]
    assert {e["type"] for e in entries} == set(SOLVERS)
    assert any(e.get("share") is False for e in entries)
    assert any(run_config(name, 1)[1]["cache_hits"] > 0 for name in CONFIGS)


if __name__ == "__main__":
    names = sys.argv[1:] or CONFIGS
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        sys.exit(f"no golden config named {', '.join(unknown)}; have {', '.join(CONFIGS)}")
    for name in names:
        history, summary = run_config(name, 1)
        (GOLDEN_DIR / f"{name}.history.csv").write_text(history, encoding="utf-8")
        print(f"{name}: {len(history.splitlines()) - 1} records, cache_hits={summary['cache_hits']}", file=sys.stderr)
