"""Record benchmark medians and the Tier-1 wall time in BENCH_<label>.json.

Runs `perfbench/run.py --trace 0` once per workload and seed, in this
checkout and, with `--parent`, in a checkout of the parent commit too. The
two trees run back to back for each (seed, workload), and which one goes
first alternates from seed to seed. Then each tree runs the Tier-1 suite
once with `--durations=5`. Workloads and metric directions come from
BENCHMARK.json, and the run length is perfbench's own. The record goes to
BENCH_<label>.json at the root of this checkout, written whole from this
one invocation: per workload and tree the median and quartiles of every
end-to-end metric, the ratio of the medians and how many pairs the change
won, every run's values, the environment, each tree's HEAD and whether it
had uncommitted edits, and per tree the Tier-1 wall time with its five
slowest tests. Per workload it also records each tree's result-row count
and digest from one fixed-size run, `perfbench/child.py --ops 1500
--master-seed 7`, and whether the two trees' rows match: the record's own
evidence that the change left every seeded output byte-identical.

    python3 tools/bench_record.py --label pr7 --parent ../parent --seeds 1 2 3 4 5 6 7 8 9 10

Timing never feeds a result row; the runs measure only their own processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "--durations=5", "-p", "no:cacheprovider"]
ROWS_OPS, ROWS_SEED = 1500, "7"  # the fixed-size run whose result rows both trees must share


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def commit(tree: Path) -> dict:
    """HEAD of the tree's git checkout, and whether tracked files differ from it."""
    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return done.stdout.strip()

    return {"head": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def bench_run(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {tree.name}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: m["value"] for name, m in result["metrics"].items()},
    }


def row_digest(tree: Path, workload: str) -> dict:
    """Result-row count and digest of `workload` run for ROWS_OPS ops at
    master seed ROWS_SEED; the rows hold seeded outputs only, never timings."""
    cmd = [sys.executable, "perfbench/child.py", "--workload", workload,
           "--master-seed", ROWS_SEED, "--seconds", "0", "--ops", str(ROWS_OPS)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {tree.name}:\n{done.stderr}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return {"rows": report["rows"], "digest": report["digest"]}


def row_digests(trees: dict[str, Path], workload: str) -> dict:
    """`row_digest` per tree and, with a parent, whether the trees' rows match."""
    out = {"ops": ROWS_OPS, "master_seed": ROWS_SEED}
    out.update({name: row_digest(tree, workload) for name, tree in trees.items()})
    if "parent" in trees:
        out["match"] = out["change"] == out["parent"]
    return out


def tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.monotonic()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall_s = time.monotonic() - start
    lines = done.stdout.splitlines()
    slowest = [
        {"seconds": float(m.group(1)), "test": m.group(2)}
        for m in (re.match(r"\s*([\d.]+)s call\s+(\S+)", ln) for ln in lines) if m
    ]
    summary = lines[-1] if lines else ""  # pytest prints nothing if it cannot start
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    return {"wall_s": round(wall_s, 1), "exit_code": done.returncode, "summary": summary,
            "counts": counts, "slowest": slowest[:5]}


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    out = {}
    for metric, direction in better.items():
        entry = {tree: spread([r[metric] for r in tree_runs]) for tree, tree_runs in runs.items()}
        if "parent" in runs:
            sign = 1 if direction == "higher" else -1
            pairs = list(zip(runs["change"], runs["parent"]))
            entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
            entry["change_better_pairs"] = sum(sign * (c[metric] - p[metric]) > 0 for c, p in pairs)
            entry["pairs"] = len(pairs)
        out[metric] = entry
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)

    trees = {"change": ROOT}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    record = {
        "label": args.label,
        "env": environment(),
        "commits": {name: commit(tree) for name, tree in trees.items()},
        "benchmark": {"command": "perfbench/run.py --trace 0", "seeds": args.seeds,
                      "order": "trees back to back per (seed, workload); first tree alternates"},
        "workloads": {},
        "tier1": {},
    }

    runs = {w: {name: [] for name in trees} for w in workloads}
    for i, seed in enumerate(args.seeds):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for workload in workloads:
            for name in order:
                log(f"seed {seed} {workload} {name}")
                runs[workload][name].append(bench_run(trees[name], workload, seed))
    for workload, tree_runs in runs.items():
        log(f"rows {workload}")
        record["workloads"][workload] = {
            "correct": all(r["correct"] for rs in tree_runs.values() for r in rs),
            "metrics": summarize(tree_runs, better),
            "runs": tree_runs,
            "rows": row_digests(trees, workload),
        }

    for name, tree in trees.items():
        log(f"tier-1 {name}")
        record["tier1"][name] = tier1(tree)

    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    log(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
