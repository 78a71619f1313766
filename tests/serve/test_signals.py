"""``tels serve`` shuts down gracefully on SIGINT and SIGTERM.

A shell that starts the daemon with ``&`` hands it SIGINT ignored, so each
test starts the daemon that way and requires the drain path (exit 0 and the
``shutting down`` line) for both signals.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_daemon_drains_on_signal_with_sigint_inherited_ignored(
    tmp_path, signum
):
    log = tmp_path / "serve.log"
    with open(log, "w") as handle:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--cache", str(tmp_path / "cache"),
                "--journal", str(tmp_path / "jobs"),
            ],
            stdout=handle,
            stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": SRC},
            preexec_fn=_ignore_sigint,
        )
    try:
        deadline = time.monotonic() + 30.0
        while "listening" not in log.read_text():
            assert proc.poll() is None, log.read_text()
            assert time.monotonic() < deadline, "daemon never listened"
            time.sleep(0.05)
        proc.send_signal(signum)
        assert proc.wait(timeout=10) == 0, log.read_text()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert "shutting down" in log.read_text()
