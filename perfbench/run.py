"""bforge benchmark: one workload per invocation, result as the last line.

    python3 perfbench/run.py --workload search|tower|nq|reproduce \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; bforge is imported from the checkout's
src/, never from an installed copy.  Set-up is timed in fresh interpreters,
the workload runs in one more fresh interpreter with an empty BFORGE_CACHE
per pass, and all scratch files live under .bench_work/ in the checkout.
With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "tower", "nq", "reproduce")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # the whole command, set-ups and children included


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def child(args: list[str], work: Path, deadline: float) -> float:
    """Run worker.py in a fresh interpreter, killing it at `deadline`
    (a time.monotonic() value); returns its wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["BFORGE_CACHE"] = str(work / "cache")
    env.pop("PYTHONSTARTUP", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=work, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {args[0]} still running after {RUN_LIMIT_S} s in total")
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}:\n{err[-4000:]}")
    return elapsed


def median_of_ops(passes: list[dict], key: str) -> float:
    """Sum over ops of the op's median across passes."""
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for rec in p["ops"]:
            per_op.setdefault(rec["op"], []).append(rec[key])
    return sum(statistics.median(v) for v in per_op.values())


def layer_metrics(result: dict, names: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced passes: medians of times, counts
    that must repeat exactly, and the tracing overhead."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    problems = []
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = median_of_ops(traced, "wall_s") - median_of_ops(plain, "wall_s")
            continue
        values = [p["layers"].get(name, 0) for p in traced]
        if name.endswith(("_s", ".s")):
            out[name] = float(statistics.median(values))
        else:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            out[name] = values[0]
    return out, problems


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bforge" / "__init__.py").is_file():
        print(f"error: no bforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    bench = ROOT / ".bench_work"
    work = bench / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work / "inputs", ignore_errors=True)
            setups.append(child(["setup", "--workload", args.workload, "--dir", str(work)], work, deadline))
        out = work / "result.json"
        child(["run", "--workload", args.workload, "--dir", str(work), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)],
              work, deadline)
        result = json.loads(out.read_text())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [rec for p in result["passes"] for rec in p["ops"]]
    attempted = len(records)
    failed = sum(rec["failure"] is not None for rec in records)
    problems = [f"{rec['op']}: {rec['failure']} {rec['detail']}" for rec in records if rec["unexpected"]]
    outputs: dict[str, object] = {}
    for rec in records:
        if outputs.setdefault(rec["op"], rec["output"]) != rec["output"]:
            problems.append(f"{rec['op']}: output differs between passes")

    plain = [p for p in result["passes"] if not p["traced"]]
    if args.trace:
        metrics, more = layer_metrics(result, [m["name"] for m in spec["per_layer"]])
        problems += more
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "wall_s": median_of_ops(plain, "wall_s"),
            "cpu_s": median_of_ops(plain, "cpu_s"),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    env = {
        "python": result["python"],
        "numpy": result["numpy"],
        "bforge": result["bforge"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "setup_runs_s": setups, "passes": len(result["passes"]),
        "failed_ops_ratio": failed / attempted, "problems": problems,
        "metrics": metrics, "outputs": outputs,
        "ops": [{k: rec[k] for k in ("op", "wall_s", "cpu_s", "failure")} | {"traced": p["traced"]}
                for p in result["passes"] for rec in p["ops"]],
    }
    results_dir = bench / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}: seed {args.seed}, {len(result['passes'])} passes "
          f"({sum(p['traced'] for p in result['passes'])} traced), {attempted} ops")
    for op in outputs:
        times = [rec["wall_s"] for p in plain for rec in p["ops"] if rec["op"] == op]
        fails = {rec["failure"] for rec in records if rec["op"] == op} - {None}
        print(f"  {op:<34} median {statistics.median(times):9.4f} s  {'FAILED ' + ','.join(sorted(fails)) if fails else 'ok'}")
    print(f"  failed_ops_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:14.6f} {units[name]}")
    for msg in problems:
        print(f"  PROBLEM {msg}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
