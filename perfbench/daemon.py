"""``tels serve`` with the traced run's span wrappers installed.

Usage: ``python3 perfbench/daemon.py SPANS.json serve [serve options]``.
The daemon runs unchanged (``repro.cli.main``); its job threads call the
wrapped public functions, and the spans are written to ``SPANS.json`` when
the daemon exits on SIGINT.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.cli import main

import flows
from spans import Recorder

if __name__ == "__main__":
    recorder = Recorder()
    flows.instrument(recorder)
    try:
        code = main(sys.argv[2:])
    finally:
        recorder.dump(Path(sys.argv[1]))
    sys.exit(code)
