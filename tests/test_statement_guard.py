"""The statement tracer sees what the statement guard needs it to see.

``statement_guard.py`` runs tier-1 under ``tracehook/sitecustomize.py`` as a
CI job; these tests pin, on a temporary package, that an unreached statement
is flagged and that statements run only in a subprocess, only in a
``multiprocessing`` worker or only before a SIGTERM are counted.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

from statement_guard import (
    ALLOWED_STATEMENTS,
    HOOK,
    REASON_KINDS,
    SRC,
    load_hits,
    package_statements,
    triage,
    unreached,
)

MODULE = '''
counter = 0


def branchy(flag):
    """Docstrings are not statements."""
    global counter
    counter += 1
    if flag:
        return "taken"
    return "never taken"


def only_in_subprocess():
    return "subprocess"


def only_in_worker():
    return "worker"


def only_before_sigterm():
    return "terminated"
'''

PARENT_SCRIPT = '''
import multiprocessing
import subprocess
import sys

from pkg import mod, twin

mod.branchy(True)
twin.branchy(False)
subprocess.run([sys.executable, "-c", "from pkg import mod; mod.only_in_subprocess()"], check=True)
pool = multiprocessing.get_context("fork").Pool(1)
assert pool.apply(mod.only_in_worker) == "worker"
pool.close()
pool.join()
'''

SLEEPER = '''
import time

from pkg import mod

mod.only_before_sigterm()
print("ready", flush=True)
time.sleep(60)
'''


def _traced_env(tmp_path: Path) -> dict:
    env = dict(os.environ, STATEMENT_TRACE_DIR=str(tmp_path / "trace"))
    env["STATEMENT_TRACE_ROOT"] = str(tmp_path / "pkg")
    env["PYTHONPATH"] = os.pathsep.join([str(HOOK), str(tmp_path)])
    return env


def test_tracer_flags_the_unreached_and_counts_subprocesses_workers_and_sigterm(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "mod.py").write_text(textwrap.dedent(MODULE))
    # Code objects of identical functions at the same line compare equal
    # across files; each file must still count its own lines.
    (tmp_path / "pkg" / "twin.py").write_text(textwrap.dedent(MODULE))
    (tmp_path / "trace").mkdir()
    env = _traced_env(tmp_path)
    subprocess.run([sys.executable, "-c", PARENT_SCRIPT], env=env, cwd=tmp_path, check=True, timeout=60)
    sleeper = subprocess.Popen(
        [sys.executable, "-c", SLEEPER], env=env, cwd=tmp_path, stdout=subprocess.PIPE, text=True
    )
    try:
        assert sleeper.stdout.readline() == "ready\n"
        sleeper.terminate()
        assert sleeper.wait(timeout=30) == -signal.SIGTERM
    finally:
        sleeper.kill()
        sleeper.stdout.close()

    counted = [statement.text for statement in package_statements(tmp_path / "pkg", tmp_path)]
    assert counted[:7] == counted[7:] == [
        "counter += 1",
        "if flag:",
        'return "taken"',
        'return "never taken"',
        'return "subprocess"',
        'return "worker"',
        'return "terminated"',
    ]
    missed = unreached(tmp_path / "pkg", tmp_path, load_hits(tmp_path / "trace"))
    assert [str(statement) for statement in missed] == [
        f'{tmp_path.name}/pkg/mod.py:11 pkg.mod.branchy: return "never taken"',
        f'{tmp_path.name}/pkg/twin.py:10 pkg.twin.branchy: return "taken"',
        f'{tmp_path.name}/pkg/twin.py:15 pkg.twin.only_in_subprocess: return "subprocess"',
        f'{tmp_path.name}/pkg/twin.py:19 pkg.twin.only_in_worker: return "worker"',
        f'{tmp_path.name}/pkg/twin.py:23 pkg.twin.only_before_sigterm: return "terminated"',
    ]
    reason = {key: "platform: a reason" for key in [("pkg.mod", "branchy", 'return "never taken"')]}
    assert triage(missed[:1], reason) == ([], [])
    stale = ("pkg.mod", "only_in_worker", 'return "worker"')
    assert triage(missed[:1], {stale: "platform: a reason"}) == (missed[:1], [stale])


def test_every_allowlist_entry_names_a_statement_and_a_qualifying_reason():
    keys = {statement.key for statement in package_statements(SRC / "repro", SRC)}
    assert set(ALLOWED_STATEMENTS) <= keys, set(ALLOWED_STATEMENTS) - keys
    for key, reason in ALLOWED_STATEMENTS.items():
        assert reason.startswith(REASON_KINDS) and reason.partition(": ")[2].strip(), key
