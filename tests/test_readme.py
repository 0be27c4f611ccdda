"""Every fenced example in README.md runs as written.

A JSON block with a "space" is a run config, run through `tunekit tune`; a
JSON block with a "grid" is an allocation scenario, run through
`tunekit simulate-allocation`; a Python block runs in a fresh namespace.
Shell blocks show command lines and are not run."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from tunekit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _examples() -> list[tuple[str, str]]:
    return [(lang, body) for lang, body in FENCE.findall(README.read_text(encoding="utf-8")) if lang != "bash"]


def test_readme_has_every_kind_of_example():
    kinds = sorted(lang if lang == "python" else next(iter(json.loads(body))) for lang, body in _examples())
    assert kinds == ["grid", "python", "space"]


@pytest.mark.parametrize("lang, body", _examples(), ids=[f"{lang}-{i}" for i, (lang, _) in enumerate(_examples())])
def test_readme_example_runs(lang, body, tmp_path):
    if lang == "python":
        exec(compile(body, str(README), "exec"), {"__name__": "readme_example"})
        return
    assert lang == "json"
    path = tmp_path / "example.json"
    path.write_text(body, encoding="utf-8")
    raw = json.loads(body)
    if "space" in raw:
        result = CliRunner().invoke(main, ["tune", "--config", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "history.csv").exists()
    else:
        assert "grid" in raw
        result = CliRunner().invoke(main, ["simulate-allocation", "--scenario", str(path)])
        assert result.exit_code == 0, result.output
