"""Record which source lines run, in this process and every child it starts.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so putting this directory on ``PYTHONPATH`` starts the
tracer before any other import.  It does nothing unless
``STATEMENT_TRACE_DIR`` is set; then it records, through ``sys.settrace`` and
``threading.settrace``, every line run in files under
``STATEMENT_TRACE_ROOT`` (an absolute path; by default this repository's
``src/repro``) and writes them to a JSON file of its own in that
directory (``{filename: [line, ...]}``).  Children inherit both variables, so
subprocesses trace themselves.

A process writes its file when it exits normally (``atexit``), when it is
ended by SIGTERM, and, in a ``multiprocessing`` child, through
``multiprocessing.util.Finalize``: pool workers leave through ``os._exit``,
which skips ``atexit``.  ``tests/statement_guard.py`` runs the test suite this
way and reports the statements nothing ran.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import sys
import threading
import uuid

OUT_DIR = os.environ.get("STATEMENT_TRACE_DIR")
ROOT = os.environ.get(
    "STATEMENT_TRACE_ROOT",
    os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src", "repro"),
)

#: ``id(code)`` -> lines of it not seen yet; None for code outside ``ROOT``.
#: Keyed by id, not by the code object: code objects compare equal across
#: files when their bodies and first lines match.
_pending: dict = {}
#: ``id(code)`` -> its absolute filename.
_files: dict = {}
#: Every code object seen, kept alive so that no id is reused.
_codes: list = []
#: filename -> lines seen.
_seen: dict = {}
_token = uuid.uuid4().hex


def _on_call(frame, event, arg):
    code = frame.f_code
    try:
        pending = _pending[id(code)]
    except KeyError:
        pending = None
        filename = os.path.abspath(code.co_filename)
        if filename.startswith(ROOT):
            pending = {line for _, _, line in code.co_lines() if line is not None}
            _files[id(code)] = filename
            _seen.setdefault(filename, set())
        _codes.append(code)
        _pending[id(code)] = pending
    return _on_line if pending else None


def _on_line(frame, event, arg):
    if event != "line":
        return _on_line
    key = id(frame.f_code)
    pending = _pending[key]
    line = frame.f_lineno
    if line in pending:
        pending.discard(line)
        _seen[_files[key]].add(line)
    # Once every line of the code object has run, stop tracing its frames.
    return _on_line if pending else None


def dump() -> None:
    """Write every line seen so far; a later call overwrites with more."""
    path = os.path.join(OUT_DIR, f"{os.getpid()}-{_token}.json")
    payload = {name: sorted(lines) for name, lines in list(_seen.items())}
    with open(path + ".tmp", "w") as out:
        json.dump(payload, out)
    os.replace(path + ".tmp", path)


def _on_sigterm(signum, frame):
    dump()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _after_fork() -> None:
    global _token
    _token = uuid.uuid4().hex


class _Child:
    """Registered with ``multiprocessing`` so its children dump on exit."""

    @staticmethod
    def started(_self) -> None:
        import multiprocessing.util

        multiprocessing.util.Finalize(None, dump, exitpriority=-100)


if OUT_DIR:
    import multiprocessing.util

    _child = _Child()
    multiprocessing.util.register_after_fork(_child, _Child.started)
    os.register_at_fork(after_in_child=_after_fork)
    atexit.register(dump)
    if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        signal.signal(signal.SIGTERM, _on_sigterm)
    threading.settrace(_on_call)
    sys.settrace(_on_call)
