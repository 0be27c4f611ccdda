"""Every span target of the benchmark's tracer names code that exists.

`perfbench/tracer.py` wraps tunekit's functions by name; a name that no longer
resolves is skipped and listed as missing, and the benchmark then counts every
traced invocation as failed. The tracer file is only read here."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target for _, target, _ in module.TARGETS]


@pytest.mark.parametrize("target", _targets())
def test_tracer_target_exists(target):
    module_name, attr = target.split(":")
    assert module_name.split(".")[0] == "tunekit"
    owner_name, _, method = attr.partition(".")
    owner = getattr(importlib.import_module(module_name), owner_name, None)
    assert callable(owner), f"{module_name} has no {owner_name}"
    if method:
        assert callable(vars(owner).get(method)), f"{owner_name} defines no method {method}"
