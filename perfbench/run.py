"""gschur benchmark: run one workload (or all) for a seed and report metrics.

    python3 perfbench/run.py --workload routes --seed 1 --seconds 30 --trace 0

Load model: closed loop, one caller, one thread.  Each pass runs the
workload's fixed case list in a fresh interpreter (`worker.py`), so module
and context memos start cold as in a user's session; passes run one after
another until the next one would end after `--seconds` (at least two).  Set-up is also
timed in separate set-up-only processes.

With `--trace 0` the end-to-end metrics are reported; with `--trace 1`
untraced and traced passes alternate and the per-layer metrics come from the
traced ones.  The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the full record, with the
machine description, goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import CALIBRATION_REF_MS, calibrate, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
STARTUP_PROBES = 9
# Medians need at least two passes, even when one pass of `cli` (about 13 s,
# twice that while the machine is slow) leaves no room for another.
MIN_PASSES = 2
PASS_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _spawn(args: list[str]) -> dict:
    """Run one worker process to completion; returns its JSON record."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args[:2], repr(t0), args[2]],
        capture_output=True, env=child_env(), cwd=ROOT, timeout=PASS_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {args} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}"
        )
    record = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    record["elapsed_s"] = time.monotonic() - t0
    return record


def _startup_ms(code: str) -> float:
    """Median time of a fresh interpreter running `code`, in ms, scaled to
    the reference speed like `scaled_ms`."""
    times = []
    for _ in range(STARTUP_PROBES):
        cal = calibrate()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                       check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1000.0 * CALIBRATION_REF_MS / cal)
    return statistics.median(times)


def scaled_ms(record: dict) -> list[float]:
    """A pass's case latencies at the reference machine speed.

    The shared machine this benchmark was built on switches between a fast
    state and one about 1.7 times slower, in bursts from a fraction of a
    second to minutes.  Each case's time is multiplied by the reference time
    of the calibration loop over that loop's time measured just before the
    case (`worker.calibrate`), so both states read alike.
    """
    return [ms * CALIBRATION_REF_MS / cal
            for ms, cal in zip(record["case_ms"], record["cal_ms"])]


def scaled_setup_s(record: dict) -> float:
    """Set-up time at the reference speed, scaled like `scaled_ms`."""
    return record["setup_s"] * CALIBRATION_REF_MS / record["setup_cal_ms"]


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of the values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    probes = [_spawn([workload, str(seed), "setup"]) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        mode = "traced" if trace and len(traced) < len(plain) else "plain"
        record = _spawn([workload, str(seed), mode])
        (traced if mode == "traced" else plain).append(record)
        probes.append(record)
        if len(plain) < MIN_PASSES or (trace and not traced):
            continue
        elapsed = time.monotonic() - started
        if elapsed + record["elapsed_s"] > seconds:
            break
    setups = [scaled_setup_s(r) for r in probes]
    raw_setups = [r["setup_s"] for r in probes]
    passes = plain + traced
    reference = passes[0]
    consistent = all(
        p["digests"] == reference["digests"] and p["terms"] == reference["terms"]
        for p in passes
    )
    failed = sum(len(p["failed"]) for p in passes)
    attempted = sum(p["cases"] for p in passes)
    case_ms = [scaled_ms(p) for p in plain]
    # Each case runs cold once per pass; its latency is the median of those.
    per_case = [statistics.median(runs) for runs in zip(*case_ms)]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failed_cases": sorted({k for p in passes for k in p["failed"]}),
        "samples": {
            "passes": len(plain),
            "traced_passes": len(traced),
            "cases": reference["cases"],
            "setups": len(setups),
        },
        "output_terms": reference["terms"],
        "unscaled": {
            "pass_wall_s_median": statistics.median(p["wall_s"] for p in plain),
            "setup_s_median": statistics.median(raw_setups),
            "calibration_ms_median": statistics.median(
                c for p in plain for c in p["cal_ms"]),
        },
        "passes": [{k: p[k] for k in ("wall_s", "case_ms", "cal_ms")} for p in plain],
        "metrics": {},
    }
    if not trace:
        values = {
            "wall_s": sum(per_case) / 1000.0,
            "case_p50_ms": statistics.median(per_case),
            "case_p90_ms": _quantile(per_case, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        result["metrics"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    else:
        result["metrics"] = per_layer(traced, plain)
        result["metrics"]["output.terms"] = {"value": reference["terms"], "unit": "count"}
    return result


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer metrics from the traced passes (median time, exact counts)."""
    from tracer import SPAN_NAMES
    from workloads import CLI_COMMANDS

    summaries = [p["trace"] for p in traced]
    first = summaries[0]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for span in SPAN_NAMES:
        put(f"{span}.calls", first[f"{span}.calls"], "count")
        put(f"{span}.self_s", statistics.median(s[f"{span}.self_s"] for s in summaries), "s")
    for key in ("exactalg.exact_divide.num_terms", "exactalg.exact_divide.quot_terms",
                "exactalg.determinant.max_order", "exactalg.determinant.out_terms"):
        put(key, first[key], "count")
    put("exactalg.exact_divide.under_h.self_s",
        statistics.median(s["exactalg.exact_divide.under_h.self_s"] for s in summaries), "s")
    calls = first["engine.bialternant.calls"]
    put("engine.bialternant.hit_ratio",
        first["engine.bialternant.hits"] / calls if calls else 0.0, "ratio")
    interpreter = _startup_ms("pass")
    put("cli.interpreter_ms", interpreter, "ms")
    put("cli.import_ms", _startup_ms("import gschur.cli") - interpreter, "ms")
    for command in CLI_COMMANDS:
        times = first.get(f"cli.command_ms.{command}", [])
        put(f"cli.command_ms.{command}", statistics.median(times) if times else 0.0, "ms")
    traced_wall = statistics.median(sum(scaled_ms(p)) for p in traced)
    plain_wall = statistics.median(sum(scaled_ms(p)) for p in plain)
    put("trace.overhead_frac", traced_wall / plain_wall - 1.0, "ratio")
    put("trace.spans", first["spans"], "count")
    return metrics


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    }


def report(result: dict) -> None:
    s = result["samples"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{s['passes']} passes x {s['cases']} cases "
          f"({s['traced_passes']} traced), {s['setups']} set-ups")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {result['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} cases)")
    print(f"output_terms = {result['output_terms']} count")
    raw = result["unscaled"]
    print(f"unscaled: pass wall median {raw['pass_wall_s_median']:.6g} s, set-up median "
          f"{raw['setup_s_median']:.6g} s, calibration median "
          f"{raw['calibration_ms_median']:.6g} ms (reference {CALIBRATION_REF_MS} ms)")
    for key in result["failed_cases"][:20]:
        print(f"FAILED {key}")


def main(argv=None) -> int:
    if not (SRC / "gschur" / "__init__.py").is_file():
        print(f"error: no gschur sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    # Compile the package's bytecode once, unmeasured, as an install would.
    subprocess.run([sys.executable, "-c", "import gschur.cli"], env=child_env(),
                   cwd=ROOT, check=True, timeout=60)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["machine"] = machine()
        report(result)
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
