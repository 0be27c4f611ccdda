"""External-process black box: one process per evaluation, line-delimited JSON.

The process receives one line on stdin: {"params": {name: value, ...}} and
must print one line: {"objective": number} with an optional "status" field.
Exit code 0 plus parseable output means ok; anything else becomes a failure
status (nonzero_exit, timeout, or parse_error) rather than an exception
escaping to the manager.

The process starts in a session of its own, and when the evaluation ends,
however it ends, its whole process group is killed, so processes it started
in the background cannot outlive it.
"""

from __future__ import annotations

import json
import os
import shlex
import signal
import subprocess

from ..manager import check_param
from ..space import Point, SearchSpace
from ..trials import EvaluationFailed


class ExternalObjective:
    """Runs `command`, a command line split as a POSIX shell splits it or a
    list of arguments. A command that splits into no words or an empty first
    word, and a timeout_ms that is not an integer > 0, raise ValueError naming
    the config field."""

    def __init__(self, space: SearchSpace, command: str | list[str], timeout_ms: int):
        check_param("external.timeout_ms", timeout_ms, integer=True, minimum=0, strict=True)
        try:
            argv = shlex.split(command) if isinstance(command, str) else command
        except ValueError as exc:  # an unterminated quote or a trailing backslash
            raise ValueError(f"external.command cannot be split: {exc}") from None
        if not (isinstance(argv, list) and argv and all(isinstance(w, str) for w in argv) and argv[0]):
            raise ValueError(f"external.command must be a nonempty string or list of strings, got {command!r}")
        self.space = space
        self.argv = list(argv)
        self.timeout_ms = timeout_ms

    def __call__(self, p: Point, eval_id: int = 0) -> float:
        payload = json.dumps({"params": self.space.to_dict(p)})
        try:
            proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
        except OSError:  # command missing or not executable: it never exited 0
            raise EvaluationFailed("nonzero_exit") from None
        try:
            stdout, _ = proc.communicate(payload + "\n", timeout=self.timeout_ms / 1000.0)
        except subprocess.TimeoutExpired:
            raise EvaluationFailed("timeout") from None
        finally:
            _kill_group(proc)
        if proc.returncode != 0:
            raise EvaluationFailed("nonzero_exit")
        line = stdout.splitlines()[0] if stdout.splitlines() else ""
        try:
            reply = json.loads(line)
            objective = reply["objective"]
            if not isinstance(objective, (int, float)) or isinstance(objective, bool):
                raise ValueError
        except (ValueError, KeyError, TypeError):
            raise EvaluationFailed("parse_error") from None
        status = reply.get("status", "ok")
        if status != "ok":
            raise EvaluationFailed(str(status))
        return float(objective)


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill every process left in proc's process group, then reap proc."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the group is already empty
        pass
    proc.communicate()
