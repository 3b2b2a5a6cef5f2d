"""Run one `gschur` command line under the span tracer.

    python3 perfbench/cli_traced.py SUMMARY_JSON CLI_ARGS...

Behaves like `python3 -m gschur.cli CLI_ARGS...` (same stdout and exit
code) and writes the per-layer summary of its spans, plus the time spent in
`gschur.cli.main` under the subcommand's name, to SUMMARY_JSON.  The raw
spans go beside it with a `.bin` suffix.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def main(argv: list[str]) -> int:
    summary_path = Path(argv[0])
    from gschur import cli

    tracer = Tracer()
    tracer.install()
    started = time.perf_counter()
    try:
        code = cli.main(argv[1:])
    finally:
        elapsed = time.perf_counter() - started
        tracer.uninstall()
    sys.stdout.flush()
    tracer.write_spans(summary_path.with_suffix(".bin"))
    summary = tracer.summarize()
    summary[f"cli.command_ms.{argv[1]}"] = [elapsed * 1000.0]
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
