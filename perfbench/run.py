"""Run one benchmark workload against the dltsched sources beside this directory.

    python3 perfbench/run.py --workload query-stream --seed 1 --seconds 10 --trace 0

Workloads: desk-pipeline, query-stream, batch-screen (see README.md). The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Lines before it give the machine, the
operation counts and every metric by name and unit. Exits 2 when the
program's sources are missing.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def machine_facts(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report is not stable across versions
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v, '-')}" for v in THREAD_VARS)
    return (
        f"machine: nproc {os.cpu_count()} (affinity {len(os.sched_getaffinity(0))}), "
        f"Python {platform.python_version()}, numpy {np.__version__}, BLAS {blas}, {threads}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dltsched" / "__init__.py").is_file():
        print(f"perfbench: no dltsched package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import dltsched
    import tracing
    import workloads

    if Path(dltsched.__file__).resolve().parent != src / "dltsched":
        print(f"perfbench: imported dltsched from {dltsched.__file__}, not {src}", file=sys.stderr)
        return 2

    work_root = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workload = {
        "desk-pipeline": workloads.DeskPipeline,
        "query-stream": workloads.QueryStream,
        "batch-screen": workloads.BatchScreen,
    }[args.workload](work_root)
    tracer = tracing.Tracer() if args.trace else None
    imported_s = time.perf_counter() - STARTED

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if tracer is not None and workload.trace_setup:
                tracer.install()
            started = time.perf_counter()
            try:
                state = workload.setup(args.seed)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            setup_times.append(time.perf_counter() - started)
        gc.collect()
        gc.freeze()
        outcome = workload.run(state, args.seconds, tracer)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()

    measured = {
        "setup_s": imported_s + statistics.median(setup_times),
        **outcome.metrics,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **(tracing.layer_metrics(tracer.calls) if tracer is not None else {}),
    }
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end" if tracer is None else "per_layer"]}
    missing = [name for name in units if name not in measured]
    if missing:
        print(f"perfbench: {args.workload} measured no {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: float(measured[name]) for name in units}
    unmeasured = [name for name, value in metrics.items() if not np.isfinite(value)]
    if unmeasured:
        print(f"perfbench: {args.workload} measured no finite {', '.join(unmeasured)}", file=sys.stderr)
        return 1

    print(machine_facts(np))
    print(f"workload: {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"set-up: import {imported_s:.3f} s, {SETUP_REPEATS} set-ups " + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    for line in outcome.lines:
        print(line)
    print(
        f"operations: {outcome.attempted} attempted, {outcome.failed} failed, "
        f"{outcome.nonpositive_rounds} of them for surrogate answers at or below 0 s"
    )
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
