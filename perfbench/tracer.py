"""Span tracer that wraps tunekit's functions from outside the package.

Each wrapped callable records one span per call: a name, the start and end
times, the enclosing span on the same thread, and an optional size (rows of a
posterior query, entries handed to DIRECT's selection). Spans stay in memory
and are written once, after the run, by `Tracer.dump`.

Functions are located by object identity: every loaded tunekit module whose
namespace binds the original object gets the wrapper, so a function imported
under another name, or re-exported by a package, is traced wherever it is
called from. Methods are wrapped on their class.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from typing import Callable

# (span name, "module:attr" of a function or "module:Class.method", size of the
# call or None). A target missing from the program is skipped and listed by
# `install`, so a later refactor that removes one shows up in the trace file.
TARGETS: list[tuple[str, str, Callable | None]] = [
    ("objectives.build", "tunekit.objectives:build_objective", None),
    ("objectives.eval", "tunekit.objectives.functions:BuiltinObjective.__call__", None),
    ("objectives.eval", "tunekit.objectives.knn:KnnObjective.__call__", None),
    ("config.solvers_build", "tunekit.config:instantiate_solvers", None),
    ("manager.run", "tunekit.manager:TuningManager.run", None),
    ("manager.evaluate", "tunekit.manager:TuningManager._evaluate", None),
    ("cache.key", "tunekit.cache:canonical_key", None),
    ("space.validate", "tunekit.space:validate_point", None),
    ("space.encode", "tunekit.space:encode", None),
    ("space.decode", "tunekit.space:decode", None),
    ("trials.bookkeeping", "tunekit.trials:TuningHistory.close_iteration", None),
    ("trials.write", "tunekit.trials:TuningHistory.write_history_csv", None),
    ("trials.write", "tunekit.trials:TuningHistory.write_convergence_csv", None),
    ("trials.write", "tunekit.trials:TuningHistory.write_summary_json", None),
    ("sampling.lhs", "tunekit.sampling:lhs_sample", None),
    ("solvers.hybrid.ask", "tunekit.solvers.hybrid:HybridSearch.ask", None),
    ("solvers.hybrid.tell", "tunekit.solvers.hybrid:HybridSearch.tell", None),
    ("solvers.direct.ask", "tunekit.solvers.direct:DirectSearch.ask", None),
    ("solvers.direct.tell", "tunekit.solvers.direct:DirectSearch.tell", None),
    ("solvers.direct.select", "tunekit.solvers.direct:pareto_select", lambda args: len(args[0])),
    ("solvers.neldermead.ask", "tunekit.solvers.neldermead:NelderMeadSolver.ask", None),
    ("solvers.neldermead.tell", "tunekit.solvers.neldermead:NelderMeadSolver.tell", None),
    ("solvers.samplers.ask", "tunekit.solvers.samplers:RandomSearch.ask", None),
    ("solvers.samplers.tell", "tunekit.solvers.samplers:RandomSearch.tell", None),
    ("solvers.samplers.ask", "tunekit.solvers.samplers:LhsSearch.ask", None),
    ("solvers.samplers.tell", "tunekit.solvers.samplers:LhsSearch.tell", None),
    ("solvers.bayes.ask", "tunekit.solvers.bayes:BayesSearch.ask", None),
    ("solvers.bayes.tell", "tunekit.solvers.bayes:BayesSearch.tell", None),
    ("solvers.bayes.fit", "tunekit.solvers.bayes:fit_gp", None),
    ("solvers.bayes.propose", "tunekit.solvers.bayes:propose", None),
    ("solvers.bayes.posterior", "tunekit.solvers.bayes:GPModel.posterior_many", lambda args: len(args[1])),
]

# Spans whose thread CPU time is recorded too (the objective runs on workers).
CPU_SPANS = {"objectives.eval"}


class Tracer:
    def __init__(self) -> None:
        # (id, parent id or -1, name, thread ident, start, end, size, cpu seconds)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller (the package import)."""
        self.spans.append((next(self._ids), -1, name, threading.get_ident(), start, end, None, None))

    def wrap(self, name: str, fn: Callable, size: Callable | None = None) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        cpu = name in CPU_SPANS
        perf, thread_time, ident = time.perf_counter, time.thread_time, threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            n = size(args) if size is not None else None
            c0 = thread_time() if cpu else 0.0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = thread_time() - c0 if cpu else None
                stack.pop()
                spans.append((span_id, parent, name, ident(), t0, t1, n, c1))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "tunekit" or n.startswith("tunekit.")]
        for name, spec, size in targets:
            module_name, attr = spec.split(":")
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None) if module is not None else None
            if owner is None or (method and method not in vars(owner)):
                self.missing.append(spec)
                continue
            if method:
                self._patch(owner, method, self.wrap(name, vars(owner)[method], size))
                continue
            wrapper = self.wrap(name, owner, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        self._patch(mod, key, wrapper)

    def _patch(self, holder: object, key: str, wrapper: Callable) -> None:
        self._undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON: field names once, then one row per span."""
        threads = {t: i for i, t in enumerate(dict.fromkeys(s[3] for s in self.spans))}
        rows = [
            [s[0], s[1], s[2], threads[s[3]], s[4], s[5], s[6], s[7]]
            for s in sorted(self.spans, key=lambda s: s[0])
        ]
        payload = {
            "fields": ["id", "parent", "name", "thread", "start", "end", "size", "cpu"],
            "missing": self.missing,
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
