"""Child process of the benchmark: `setup` writes a workload's inputs, `run`
measures it.  Started by run.py with PYTHONPATH pointing at the checkout's
src/, so every run is a fresh interpreter with a fresh import of bforge.

    python3 perfbench/worker.py setup --workload W --dir DIR
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1 --dir DIR --out FILE
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import bforge
import numpy
from tracer import Tracer, leftover_wrappers
from workloads import WORKLOADS, check, unexpected, write_inputs


def run_pass(workload: str, inputs: Path, seed: int, tracer: Tracer | None) -> list[dict]:
    """One pass over the op list; returns a record per op."""
    records = []
    ops = WORKLOADS[workload].ops(inputs, seed)
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            error = raw = None
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                raw = op.run()
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                error = exc
            w1, c1 = time.perf_counter(), time.process_time()
            outcome = check(op, raw, error)
            records.append({
                "op": op.name,
                "wall_s": w1 - w0,
                "cpu_s": c1 - c0,
                "output": outcome.output,
                "failure": outcome.failure,
                "unexpected": unexpected(op, outcome),
                "detail": outcome.detail,
            })
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def measure(workload: str, inputs: Path, cache_root: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Whole passes until the next one would end after `seconds`.

    Untraced runs repeat the op list; traced runs alternate an untraced and
    a traced pass, so the tracing overhead is measured in one process.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        cache = cache_root / f"pass-{len(passes)}"
        shutil.rmtree(cache, ignore_errors=True)
        os.environ["BFORGE_CACHE"] = str(cache)
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        records = run_pass(workload, inputs, seed, tracer)
        entry = {"traced": traced, "wall_s": time.perf_counter() - t0, "ops": records}
        if tracer is not None:
            left = leftover_wrappers()
            if left:
                raise RuntimeError(f"tracing wrappers left installed: {left}")
            entry["layers"] = tracer.layer_metrics()
        shutil.rmtree(cache, ignore_errors=True)
        passes.append(entry)
        elapsed = time.perf_counter() - start
        if trace and len(passes) < 2:
            continue
        # the next pass is estimated from the earlier passes of its kind
        same_kind = [p["wall_s"] for p in passes if p["traced"] == (trace and len(passes) % 2 == 1)]
        if elapsed + statistics.median(same_kind) > seconds:
            break
    return {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "bforge": bforge.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=["setup", "run"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.role == "setup":
        write_inputs(args.workload, args.dir / "inputs")
        return 0
    result = measure(args.workload, args.dir / "inputs", args.dir / "cache", args.seed, args.seconds, bool(args.trace))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
