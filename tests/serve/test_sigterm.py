"""``repro serve-http`` / ``serve-fleet`` start and stop cleanly.

Supervisors, container runtimes and CI ``timeout`` send SIGTERM, not
Ctrl-C: the verb must unwind its serving stack (and join its fleet
workers), print the shutdown line and exit 0 — not die with -15 and leave
children behind.  A verb whose journal another writer holds must refuse
to start with one error line, not a traceback.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.scheduler import JobJournal, WorkloadManager

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _live_ppid(pid: int | str) -> int | None:
    """Parent pid of a live process; ``None`` once it is gone or a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # "pid (comm) state ppid ..." — comm may contain spaces/parens
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return None if state == "Z" else int(ppid)


def _children(pid: int) -> list[int]:
    return [
        int(entry.name)
        for entry in Path("/proc").iterdir()
        if entry.name.isdigit() and _live_ppid(entry.name) == pid
    ]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize(
    "verb_args, expected_children",
    [
        (["serve-http"], 0),
        (["serve-fleet", "--shards", "2"], 2),
    ],
    ids=["serve-http", "serve-fleet"],
)
def test_sigterm_is_a_clean_shutdown(tmp_path, verb_args, expected_children):
    args = [*verb_args, "--port", "0"]
    if verb_args[0] == "serve-fleet":
        args += ["--data-dir", str(tmp_path / "fleet")]
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    try:
        ready = proc.stdout.readline()
        assert ready.startswith("repro-serve-ready"), ready
        children = _children(proc.pid)
        # the fleet also keeps multiprocessing's resource tracker alive
        assert len(children) >= expected_children
        proc.send_signal(signal.SIGTERM)
        rest, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, rest
    assert "shutdown complete" in rest
    deadline = time.monotonic() + 2.0
    while any(_live_ppid(c) for c in children) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert [c for c in children if _live_ppid(c)] == []


@pytest.mark.parametrize(
    "verb_args, held",
    [
        (["serve-http", "--journal", "journal.jsonl"], "journal.jsonl"),
        (["serve-fleet", "--shards", "2", "--data-dir", "fleet"], "fleet/journal-s0.jsonl"),
    ],
    ids=["serve-http", "serve-fleet"],
)
def test_a_held_journal_is_one_error_line(tmp_path, verb_args, held):
    path = tmp_path / held
    path.parent.mkdir(exist_ok=True)
    live = WorkloadManager(None, journal=JobJournal(path))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *verb_args, "--port", "0"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            cwd=tmp_path,
            timeout=120,
        )
    finally:
        live.close()
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "another writer holds this journal" in line
    assert held.split("/")[-1] in line
