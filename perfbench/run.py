"""qdeny benchmark: one workload per invocation, every measurement in a fresh
single-threaded process.

Run from the repository root:

    python3 perfbench/run.py --workload bb84-long --seed 1 --seconds 15 --trace 0

Workloads: bb84-long, deny-short, weak-warden, ue-teleport (see
workloads.py). The workload seed is hashed with the workload name (and the
process index) into a master seed, the only randomness the program receives.

With `--trace 0` two fresh processes run one after another, each for half
of `--seconds`. The host shares its cores with other tenants and its speed
moves by up to 1.8 times, from second to second and over tens of minutes,
which raw wall time cannot average out in a run; so every timing is taken
at a reference speed, measured next to it on the same kind of work. Each
process's set-up time (process start to first op, less building the
reference kernel) is scaled by REFERENCE_IMPORT_S over the wall time of a
fresh process that imports numpy and scipy.stats just before it, and
`setup_s` is the median over the processes. The op metrics pool the ops of
both processes, each op scaled by the reference kernel run next to it (see
workloads.py). The wall-clock figures are printed too.
With `--trace 1` one untraced process runs for `--seconds` and a traced
process replays the same ops; that pair gives the per-layer metrics, the
tracing overhead (traced minus untraced op time of the same ops), and a
check that both produce the same result digest. A human-readable summary
precedes the last line of output, which is one JSON object: correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("bb84-long", "deny-short", "weak-warden", "ue-teleport")
PROCESSES = 2
TIME_BUDGET_S = 170
# Set-up's reference work: a fresh process importing the libraries that
# dominate qdeny's own import, at the reference speed taking 1.5 s.
REFERENCE_IMPORT = "import numpy, scipy.stats"
REFERENCE_IMPORT_S = 1.5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    pass


def master_seed_hex(workload: str, seed: int, process: int) -> str:
    return hashlib.sha256(f"perfbench:{workload}:{seed}:{process}".encode()).hexdigest()[:32]


def child_env() -> dict[str, str]:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, deadline: float, process: int, seconds: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "child.py"),
        "--workload", args.workload,
        "--master-seed", master_seed_hex(args.workload, args.seed, process),
        "--seconds", str(seconds),
        *extra,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"benchmark process overran the {TIME_BUDGET_S} s budget")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"benchmark process exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["first_op_monotonic"] - spawned - report["own_setup_s"]
    return report


def reference_import_s(deadline: float) -> float:
    """Wall time of one fresh process running REFERENCE_IMPORT."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", REFERENCE_IMPORT], cwd=ROOT, env=child_env(),
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"reference import overran the {TIME_BUDGET_S} s budget")
    if proc.returncode != 0:
        raise ChildFailed(f"reference import exited with code {proc.returncode}")
    return time.monotonic() - start


def tail(durations_ms: list[float]) -> tuple[float, str]:
    """Highest ladder percentile with at least ten ops beyond it (nearest rank)."""
    ordered = sorted(durations_ms)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = int(-(-p * n // 100))  # ceil
        if n - rank >= 10:
            return ordered[rank - 1], f"p{p:g}"
    return ordered[-1], "max"


def no_ops(reports: list[dict]) -> str:
    return "no op completed: " + "; ".join(p for r in reports for p in r["problems"])


def combine(reports: list[dict], problems: list[str]) -> dict:
    return {
        "env": reports[0]["env"],
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "rows": sum(r["rows"] for r in reports),
        "digest": hashlib.sha256("".join(r["digest"] for r in reports).encode()).hexdigest(),
        "checks": [r["summary"] for r in reports],
        "problems": problems + [p for r in reports for p in r["problems"]],
        "notes": [],
    }


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    reports = []
    for k in range(PROCESSES):
        reference_s = reference_import_s(deadline)
        report = run_child(args, deadline, k, args.seconds / PROCESSES)
        report["setup_wall_s"] = report["setup_s"]
        report["setup_s"] *= REFERENCE_IMPORT_S / reference_s
        reports.append(report)
    ref_ms = [d * 1e3 for r in reports for d in r["reference_durations"]]
    raw_ms = [d * 1e3 for r in reports for d in r["durations"]]
    if not ref_ms:
        raise ChildFailed(no_ops(reports))
    tail_ms, tail_label = tail(ref_ms)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "ops_per_s": (len(ref_ms) * 1e3 / sum(ref_ms), "1/s"),
        "op_ms_p50": (statistics.median(ref_ms), "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MB"),
    }
    result = combine(reports, [])
    # Printed, not gated: host stalls make the tail of short ops vary far
    # beyond any allowed bound from run to run.
    result["notes"].append(
        f"{'op_ms_tail':<44} {tail_ms:>14.6g} ms ({tail_label} of {len(ref_ms)} ops)"
    )
    # Wall-clock figures at the host's speed of the moment, for reference.
    result["notes"] += [
        f"{'wall: setup_s':<44} {statistics.median(r['setup_wall_s'] for r in reports):>14.6g} s",
        f"{'wall: ops_per_s':<44} {len(raw_ms) * 1e3 / sum(raw_ms):>14.6g} 1/s",
        f"{'wall: op_ms_p50':<44} {statistics.median(raw_ms):>14.6g} ms",
    ]
    return result, metrics


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    plain = run_child(args, deadline, 0, args.seconds)
    ops = len(plain["durations"])
    if not ops:
        raise ChildFailed(no_ops([plain]))
    traced = run_child(args, deadline, 0, args.seconds, "--trace", "--ops", str(ops))
    problems = []
    if traced["digest"] != plain["digest"]:
        problems.append("traced run's result digest differs from the untraced run's")
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["setup.import_s"] = (traced["import_s"], "s")
    traced_s, plain_s = sum(traced["durations"]), sum(plain["durations"])
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.ops"] = (ops, "count")
    result = combine([plain, traced], problems)
    result["digest"], result["rows"] = plain["digest"], plain["rows"]
    result["notes"].append(
        f"tracing overhead: traced {traced_s:.3f} s"
        f" - untraced {plain_s:.3f} s of op time for the same {ops} ops"
    )
    return result, metrics


def print_summary(args, result: dict, metrics: dict) -> None:
    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}"
          f"  nproc {env['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g}"
          f" ({result['failed']} of {result['attempted']} ops)")
    for note in result["notes"]:
        print(f"  {note}")
    print(f"  result digest sha256:{result['digest']} over {result['rows']} rows")
    for checks in result["checks"]:
        print(f"  checks: {json.dumps(checks, sort_keys=True)}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qdeny" / "__init__.py").is_file():
        print(f"error: no qdeny sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SystemExit unwinds subprocess.run, which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_BUDGET_S
    try:
        result, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_summary(args, result, metrics)
    print(json.dumps({
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
