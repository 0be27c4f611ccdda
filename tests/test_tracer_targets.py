"""The benchmark's tracer finds every target and sizes its spans.

`perfbench/tracer.py` wraps tunekit's functions by name; a name that no longer
resolves is skipped and listed as missing, and the benchmark then counts every
traced invocation as failed. A span's size is read from the call's arguments,
so an argument of another type (a generator where a list was passed) makes
the wrapper raise inside the traced solver, which the manager then isolates.
The tracer is loaded from its file and installed as the benchmark installs it."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest
from click.testing import CliRunner

TESTS = Path(__file__).resolve().parent
TRACER_PATH = TESTS.parent / "perfbench" / "tracer.py"
GOLDEN_DIR = TESTS / "golden"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets() -> list[str]:
    return [target for _, target, _ in _tracer_module().TARGETS]


@pytest.mark.parametrize("target", _targets())
def test_tracer_target_exists(target):
    module_name, attr = target.split(":")
    assert module_name.split(".")[0] == "tunekit"
    owner_name, _, method = attr.partition(".")
    owner = getattr(importlib.import_module(module_name), owner_name, None)
    assert callable(owner), f"{module_name} has no {owner_name}"
    if method:
        assert callable(vars(owner).get(method)), f"{owner_name} defines no method {method}"


@pytest.mark.parametrize(
    "name, sized_spans",
    [
        ("portfolio", ["solvers.direct.select"]),
        ("bayes-direct", ["solvers.direct.select", "solvers.bayes.posterior"]),
    ],
)
def test_traced_tune_misses_no_target_and_sizes_every_span(name, sized_spans, tmp_path):
    import tunekit.cli  # the tracer wraps only the tunekit modules already loaded

    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        result = CliRunner().invoke(
            tunekit.cli.main, ["tune", "--config", str(GOLDEN_DIR / f"{name}.json"), "--out", str(tmp_path)]
        )
    finally:
        tracer.uninstall()
    assert result.exit_code == 0, result.output
    assert tracer.missing == []
    # (id, parent, name, thread, start, end, size, cpu)
    for span_name in sized_spans:
        sizes = [span[6] for span in tracer.spans if span[2] == span_name]
        assert sizes, f"no {span_name} span"
        assert all(type(size) is int for size in sizes), span_name
