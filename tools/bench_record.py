"""Record the benchmark of one or two gsens checkouts in a BENCH_<n>.json file.

Usage (from the repository root):

    python3 tools/bench_record.py --out BENCH_8.json [--parent PARENT_CHECKOUT]
        [--seconds 36] [--seed 1] [--pairs 10]
        [--pair-workload grid-sweeps ci-scale point-queries]

Each checkout's own, unchanged ``perfbench/run.py`` runs every workload twice,
untraced (``--trace 0``: the end-to-end metrics of BENCHMARK.json) and traced
(``--trace 1``: the per-layer metrics), in a fresh interpreter each time. With
``--parent``, the parent runs each workload just before this checkout does.
``--pairs N`` then adds N more untraced pairs on each workload named by
``--pair-workload`` (grid-sweeps by default), alternating which side runs
first, and reports for each end-to-end metric each side's values, median and
quartiles, the pairs the change wins, the change of the median relative to
the parent's (positive is worse) and a verdict against the metric's bound in
BENCHMARK.json (see judge).

The file also holds each checkout's ``src/gsens`` line count, the wall time of
``gsens sweep2 synthetic4 --pos Y2,Y1 --pos2 Y3,Y2`` (the default 51 x 51 grid,
best of three fresh interpreters) and the environment. Commands run one at a
time, so nothing else of this tool competes with the benchmark for the CPU.
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

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid-sweeps", "ci-scale", "point-queries")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
W2 = ("sweep2", "synthetic4", "--pos", "Y2,Y1", "--pos2", "Y3,Y2")


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last stdout line of one perfbench run, parsed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: perfbench failed in {checkout} ({workload}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {**result, "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def w2_seconds(checkout: Path, runs: int = 3) -> float:
    """Best wall time of the W2 sweep over fresh interpreters, output discarded."""
    command, fixture, *args = W2
    model = checkout / "src" / "gsens" / "fixtures" / f"{fixture}.json"
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(checkout / "src")}
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "gsens.cli", command, str(model), *args],
                       env=env, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    return min(times)


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (checkout / "src" / "gsens").glob("*.py"))


def environment() -> dict:
    import numpy

    info = Path("/proc/cpuinfo")
    lines = info.read_text().splitlines() if info.exists() else []
    cpu = next((l.split(":", 1)[1].strip() for l in lines if l.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def judge(old: dict, new: dict, bound: float, higher: bool) -> tuple[float, str]:
    """The change's median worsening relative to the parent's (negative when
    better) and its verdict: "better" when every change run beats every parent
    run; else "unresolved" when either side's quartiles spread wider than the
    bound, relative to its median; else "worse" past the bound or "within bound"."""
    worse = (new["median"] - old["median"]) / old["median"] * (-1 if higher else 1)
    if (min(new["values"]) > max(old["values"])) if higher else (max(new["values"]) < min(old["values"])):
        return worse, "better"
    spread = max((side["q3"] - side["q1"]) / side["median"] for side in (old, new))
    return worse, "unresolved" if spread > bound else "worse" if worse > bound else "within bound"


def pairs(parent: Path, change: Path, workload: str, seed: int, seconds: float, count: int) -> dict:
    """count untraced pairs, alternating the side that runs first."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(count):
        order = (("parent", parent), ("change", change))
        for side, checkout in order if k % 2 == 0 else order[::-1]:
            runs[side].append(bench(checkout, workload, seed, seconds, 0))
            print(f"pair {k + 1}/{count} {side}: jobs_per_s "
                  f"{runs[side][-1]['metrics']['jobs_per_s']:.1f}", file=sys.stderr)
    metrics = {}
    better = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for spec in better:
        name, higher = spec["name"], spec["better"] == "higher"
        a = [r["metrics"][name] for r in runs["parent"]]
        b = [r["metrics"][name] for r in runs["change"]]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        old, new = summary(a), summary(b)
        worse, verdict = judge(old, new, spec["bound"], higher)
        metrics[name] = {"parent": old, "change": new, "change_wins": wins, "pairs": count,
                         "relative_worsening": worse, "bound": spec["bound"], "verdict": verdict}
    return {"workload": workload, "seconds": seconds, "seed": seed, "metrics": metrics,
            "failed": sum(r["failed"] for side in runs.values() for r in side)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", type=Path, help="a parent checkout to record alongside this one")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--pair-workload", nargs="+", default=["grid-sweeps"], choices=WORKLOADS)
    args = parser.parse_args(argv)

    trees = {"change": ROOT}
    if args.parent is not None:
        trees = {"parent": args.parent.resolve(), "change": ROOT}
    record: dict = {
        "seconds": args.seconds,
        "seed": args.seed,
        "environment": environment(),
        "trees": {side: {"src_lines": src_lines(path), "w2_wall_s": w2_seconds(path), "workloads": {}}
                  for side, path in trees.items()},
    }
    for workload in WORKLOADS:
        for side, path in trees.items():
            untraced = bench(path, workload, args.seed, args.seconds, 0)
            traced = bench(path, workload, args.seed, args.seconds, 1)
            record["trees"][side]["workloads"][workload] = {
                "end_to_end": untraced["metrics"],
                "per_layer": traced["metrics"],
                "attempted": untraced["attempted"] + traced["attempted"],
                "failed": untraced["failed"] + traced["failed"],
            }
            print(f"{side} {workload}: {untraced['metrics']}", file=sys.stderr)
    if args.pairs and args.parent is not None:
        record["pairs"] = [pairs(trees["parent"], ROOT, workload, args.seed, args.seconds, args.pairs)
                           for workload in args.pair_workload]
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
