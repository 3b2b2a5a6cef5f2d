"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED T0 MODE

T0 is the parent's `time.monotonic()` just before it started this process,
so set-up time runs from interpreter start until the first case is ready: it
covers the gschur import, the tables and case list, and preset pole probes.
MODE is `setup` (stop there), `plain` (run every case untraced) or `traced`
(run them under the span tracer).  The last stdout line is a JSON record.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MODES = ("setup", "plain", "traced")
# `calibrate()` in the fast state of the machine the benchmark was built on
# (2 vCPUs, Python 3.11.7); it fixes the speed that times are read at.
CALIBRATION_REF_MS = 1.0


def child_env() -> dict:
    """Environment for child interpreters: gschur from this checkout's src."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def calibrate() -> float:
    """Time in ms of a fixed pure-Python loop (stdlib `Fraction` and dict work).

    Run just before each case, it tracks how fast the machine is at that
    moment; it calls no gschur code, so no change to gschur moves it.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 500):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        seen[(i % 13, i % 11)] = acc
    return (time.perf_counter() - t0) * 1000.0


def scale_summary(summary: dict, factor: float) -> dict:
    """A span summary with its times read at the reference speed."""
    out = {}
    for key, value in summary.items():
        if key.endswith("self_s"):
            value = value * factor
        elif key.startswith("cli.command_ms."):
            value = [v * factor for v in value]
        out[key] = value
    return out


def run_pass(setup, mode: str) -> dict:
    """Run every case of `setup`; returns timings, failures and outputs."""
    from tracer import Tracer, merge_summaries

    import workloads

    traced = mode == "traced"
    in_process = setup.workload != "cli"
    tracer = Tracer() if traced and in_process else None
    child_summaries = []
    case_ms, cal_ms, failed, digests = [], [], [], []
    terms = 0
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    try:
        for idx, case in enumerate(setup.cases):
            spans_out = None
            if traced and not in_process:
                spans_out = OUT / "cli" / f"case{idx}.json"
                spans_out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.case_id = idx
            cal_ms.append(calibrate())
            t0 = time.perf_counter()
            try:
                ok, outputs = workloads.run_case(setup, case, spans_out)
                got = workloads.digest(outputs)
                terms += workloads.term_count(outputs)
                if spans_out is not None:
                    with open(spans_out, encoding="utf-8") as fh:
                        child = json.load(fh)
                    child_summaries.append(scale_summary(child, CALIBRATION_REF_MS / cal_ms[-1]))
            except Exception as exc:  # a raising case is a failed case
                ok, got = False, f"raised {type(exc).__name__}: {exc}"
            pinned = setup.pinned.get(case.key)
            if setup.pinned and pinned != got:
                ok = False
            case_ms.append((time.perf_counter() - t0) * 1000.0)
            digests.append(got)
            if not ok:
                failed.append(case.key)
    finally:
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    record = {
        "wall_s": wall,
        "case_ms": case_ms,
        "cal_ms": cal_ms,
        "failed": failed,
        "digests": digests,
        "terms": terms,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "trace": None,
    }
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{setup.workload}.bin")
        record["trace"] = tracer.summarize([CALIBRATION_REF_MS / c for c in cal_ms])
    elif traced:
        record["trace"] = merge_summaries(child_summaries)
    return record


def main(argv: list[str]) -> int:
    workload, seed, t0, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}")
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the pass, its calibration and its child processes: the
        # vCPUs of a shared machine change speed independently of each other.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import gschur

    if not Path(gschur.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"gschur was imported from {gschur.__file__}, not {SRC}")
    import workloads

    setup = workloads.build(workload, seed)
    setup_s = time.monotonic() - t0
    setup_cal_ms = sorted(calibrate() for _ in range(3))[1]
    record = {"setup_s": setup_s, "setup_cal_ms": setup_cal_ms, "cases": len(setup.cases)}
    if mode != "setup":
        (OUT / "cli").mkdir(parents=True, exist_ok=True)
        record.update(run_pass(setup, mode))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
