"""Run one tapgen CLI command with spans around its layer calls.

Usage:
    python3 perfbench/launch.py TRACE_FILE <tapgen arguments...>

Installs the wrappers from tracing.py, calls `tapgen.cli.main` with the
given arguments exactly as the `tapgen` entry point would, and writes
the spans and counters to TRACE_FILE when the command exits. Run it with
`--workers 1`: spans of pool worker processes are not collected.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import Tracer  # noqa: E402


def main() -> None:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from tapgen import cli

    try:
        cli.main(args=argv, prog_name="tapgen")
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    main()
