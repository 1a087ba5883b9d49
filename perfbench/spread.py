"""Regenerate the figures in perfbench/README.md.

    python3 perfbench/spread.py runs --seeds 1-10            # end-to-end, every workload
    python3 perfbench/spread.py runs --seeds 1 --trace 1     # per-layer, every workload
    python3 perfbench/spread.py makeup --seed 1              # make-up of the drawn inputs

``runs`` calls run.py once per workload and seed, one after another, and
prints per metric the median, the quartiles and their distance as a share
of the median (Python's ``statistics.quantiles(values, n=4)``).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def runs(args) -> None:
    seconds = SPEC["run_seconds"]
    for workload in WORKLOADS:
        results = []
        for seed in seed_list(args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True)
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
            if args.trace:
                print(done.stdout)
        print(f"### {workload}: {len(results)} runs of {seconds} s, seeds {args.seeds}, trace {args.trace}")
        print("attempted " + ", ".join(str(r["attempted"]) for r in results)
              + "; failed " + ", ".join(str(r["failed"]) for r in results))
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median | runs in seed order |")
        print("|---|---|---|---|---|---|---|")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / abs(med) if med else float("nan")
            each = " ".join(f"{v:.4g}" for v in values)
            print(f"| {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {share:.3f} | {each} |")
        print(flush=True)


def makeup(args) -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import workloads
    from dltsched import solver

    systems = workloads.draw_systems(args.seed, workloads.POOL_STREAM, workloads.SCREEN_POOL)
    n = systems.mask.sum(axis=1)
    hist = np.bincount(n, minlength=workloads.MAX_CHILDREN + 1)[workloads.N_RANGE[0]:]
    print(f"{len(n)} systems drawn with seed {args.seed}; n = 3..20: " + " ".join(str(int(h)) for h in hist))
    for intensity in (workloads.SCREEN_INTENSITY, workloads.QUERY_INTENSITY):
        # The solver takes its log-space route above n = 12 or when a beta
        # coefficient exceeds 10 (solver._LOGSPACE_*_THRESHOLD).
        by_beta = np.array([
            max(solver.beta_coefficients(solver.to_time_rates(c, intensity))) > solver._LOGSPACE_BETA_THRESHOLD
            for c in systems.configs
        ])
        plain = (n <= solver._LOGSPACE_N_THRESHOLD) & ~by_beta
        t_star = systems.references(intensity)["t_star"]
        print(f"intensity {intensity:g}: plain route {plain.mean():.3f}, log-space route {1 - plain.mean():.3f} "
              f"(n > 12: {np.mean(n > 12):.3f}; n <= 12 with a beta above 10: {np.mean(by_beta & (n <= 12)):.3f}); "
              f"T* median {np.median(t_star):.0f} s, max {t_star.max():.0f} s, "
              f"share above {workloads.HYBRID_THRESHOLD:g} s {np.mean(t_star > workloads.HYBRID_THRESHOLD):.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("runs")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=runs)
    p = sub.add_parser("makeup")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=makeup)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
