"""One benchmark process: import qdeny, set up one workload, run timed ops.

`run.py` starts this in a fresh process per measurement, from the
repository root with `src` on PYTHONPATH:

    python3 perfbench/child.py --workload bb84-long --master-seed HEX \
        --seconds 10 [--ops N] [--trace]

`--ops` runs exactly N ops instead of running for `--seconds`; `--trace`
installs the per-layer span wrappers before set-up. The report is one JSON object
on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--master-seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import spans

    for layer in spans.LAYERS:
        importlib.import_module(f"qdeny.{layer}")
    import_s = time.perf_counter() - t0

    import numpy
    import scipy
    import workloads

    # Building the reference kernel is the benchmark's own work, which
    # run.py takes out of set-up time.
    t_own = time.perf_counter()
    cls = workloads.WORKLOADS[args.workload]
    reference = None if args.trace else cls.reference()
    own_s = time.perf_counter() - t_own

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    workload = cls(int(args.master_seed, 16), tracer.wrap if tracer else workloads.no_span)
    workload.setup()
    clock = workloads.Clock(args.seconds, args.ops, reference)
    clock.start()
    attempted_extra = 0
    try:
        workload.run(clock)
    except workloads.StopRun:
        pass
    except Exception as exc:  # a game cannot resume after a raising trial
        attempted_extra = 1
        workload.fail(len(clock.durations), repr(exc))
    layers = spans.layer_metrics(tracer) if tracer else None
    missing = spans.missing_calls(tracer, args.workload) if tracer else []
    workload.check()

    problems = list(workload.problems)
    problems += [f"{name} was never called" for name in missing]
    report = dict(
        import_s=import_s,
        first_op_monotonic=clock.first_op_monotonic,
        own_setup_s=own_s,
        durations=clock.durations,
        reference_durations=clock.reference_durations() if reference else None,
        attempted=len(clock.durations) + attempted_extra,
        failed=workload.failed,
        problems=problems,
        rows=len(workload.rows),
        digest=hashlib.sha256("\n".join(workload.rows).encode()).hexdigest(),
        summary=workload.summary,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        env={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
        },
        layers=layers,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
