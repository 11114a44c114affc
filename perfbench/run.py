"""gsens benchmark: drive ``gsens.cli.main`` in-process on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-sweeps --seed 1 --seconds 36 --trace 0

One client, closed loop: each job starts when the previous one returns, in
this one process, with no extra threads. The run repeats whole passes over
the workload's seeded job list until ``--seconds`` have elapsed (and, when
untraced, MIN_JOBS jobs have run), so every job type keeps its share of the
samples. Set-up is timed in fresh interpreters the run starts one at a time
between passes and waits for. Each job's exit code and stdout are
checked (see checker.py); a failed check counts the job as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes over the same jobs and
reports the per-layer metrics (tracer.py): per-job means of self time and
calls per layer, whose self times sum to the traced job time.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference" / "fixtures.json"

sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_SAMPLES = 12
# Untraced jobs a run takes at least, so that ten or more lie beyond p90.
MIN_JOBS = 100
# One BLAS thread: the matrices are at most 16 x 16, and idle BLAS threads
# would compete with the single client for the machine's cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import gsens.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def setup_sample() -> float:
    """Seconds to import gsens.cli (and so numpy) in a fresh interpreter.

    Imports are cached per process, so each sample is a separate interpreter
    that times only its own import; the caller waits for it to end."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, env={**os.environ, **THREAD_ENV}, cwd=ROOT, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def execute(main, argv, tracer=None, job_no=0):
    """Run one CLI call with stdout and stderr captured.

    Returns (exit code or crash text, stdout, wall ns). A crash is reported,
    not raised: it is the program's failure, not the benchmark's.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = main(argv) if tracer is None else tracer.run_job(job_no, main, argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            code = "crash: " + traceback.format_exc(limit=3).strip().replace("\n", " | ")
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), elapsed


def argv_of(job, workdir: Path) -> list[str]:
    if job.fixture:
        model = SRC / "gsens" / "fixtures" / f"{job.model[len('fixture:'):]}.json"
    else:
        model = workdir / job.model
    return [job.command, str(model), *job.args]


class Run:
    """Outcome of the job loop: per-execution times and the checker's verdicts."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first: dict[int, tuple] = {}
        self.problems: dict[int, list[str]] = {}
        self.rows: dict[int, int] = {}
        self.times_ns = {False: [], True: []}
        self.executions = 0
        self.failed = 0
        self.total_rows = 0
        self.passes = 0

    def record(self, k: int, code, text: str, ns: int, traced: bool, reference: dict) -> None:
        job = self.jobs[k]
        if k not in self.first:
            self.first[k] = (code, text)
            if isinstance(code, int):
                problems, rows = checker.check_job(job, code, text, reference)
            else:
                problems, rows = [code], 0
            self.problems[k] = problems
            self.rows[k] = rows
        elif (code, text) != self.first[k]:
            self.problems[k].append(
                f"output differs from the first run of the same job (traced={traced})"
            )
        self.times_ns[traced].append(ns)
        self.executions += 1
        self.failed += bool(self.problems[k])
        if not traced:
            self.total_rows += self.rows[k]


def run_loop(main, jobs, workdir, seconds, trace, reference) -> tuple[Run, object, list[float]]:
    """Whole passes over the jobs until seconds have elapsed and, in an
    untraced run, at least MIN_JOBS jobs have run.

    An untraced run also takes SETUP_SAMPLES set-up times, spread evenly over
    the run between passes (the rest after the last pass), so that set-up and
    jobs are measured over the same stretch of time on a machine whose speed
    drifts.
    """
    run = Run(jobs)
    argvs = [argv_of(j, workdir) for j in jobs]
    tracer = tracing.Tracer() if trace else None
    setup: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (not trace and len(run.times_ns[False]) < MIN_JOBS):
        if not trace and len(setup) < SETUP_SAMPLES and \
                time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_sample())
        for traced in (False, True) if trace else (False,):
            with tracing.installed(tracer) if traced else contextlib.nullcontext():
                for k, argv in enumerate(argvs):
                    code, text, ns = execute(main, argv, tracer if traced else None, run.executions)
                    run.record(k, code, text, ns, traced, reference)
        run.passes += 1
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    return run, tracer, setup


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "src_gsens_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "gsens").glob("*.py")),
    }


def end_to_end(run: Run, setup: list[float]) -> dict[str, tuple[float, str]]:
    times_ms = [ns / 1e6 for ns in run.times_ns[False]]
    busy_s = sum(times_ms) / 1e3
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_p50_ms": (statistics.median(times_ms), "ms"),
        "job_p90_ms": (statistics.quantiles(times_ms, n=10)[8], "ms"),
        "jobs_per_s": (len(times_ms) / busy_s, "1/s"),
        "rows_per_s": (run.total_rows / busy_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: Run, tr) -> dict[str, tuple[float, str]]:
    traced = len(run.times_ns[True])
    layers = tracing.layer_metrics(tr, traced)
    untraced_rate = len(run.times_ns[False]) / sum(run.times_ns[False])
    traced_rate = traced / sum(run.times_ns[True])
    layers["trace.overhead_ratio"] = traced_rate / untraced_rate

    def unit(name: str) -> str:
        if name.endswith("_ms"):
            return "ms"
        if name.endswith("_ratio"):
            return "ratio"
        if name.endswith(".bytes"):
            return "B"
        return "count"

    return {name: (value, unit(name)) for name, value in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gsens" / "cli.py").is_file():
        print(f"error: no gsens sources at {SRC / 'gsens'}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    inputs = generate(args.workload, args.seed)
    reference = json.loads(REFERENCE.read_text())

    sys.path.insert(0, str(SRC))
    import gsens.cli

    if not Path(gsens.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gsens from {gsens.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR))
    try:
        for name, text in inputs.files.items():
            (workdir / name).write_text(text)
        run, tr, setup = run_loop(gsens.cli.main, inputs.jobs, workdir, args.seconds, args.trace, reference)
    finally:
        shutil.rmtree(workdir)

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"passes={run.passes} jobs/pass={len(inputs.jobs)} executions={run.executions}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        metrics = per_layer(run, tr)
        spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tr.write(spans_path)
        print(f"traced jobs={len(run.times_ns[True])} spans={len(tr.spans)} written to {spans_path}")
        layer_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_ms"))
        print(f"layer self times sum to {layer_sum:.6f} ms/job; traced job time "
              f"{metrics['trace.job_ms'][0]:.6f} ms/job")
    else:
        metrics = end_to_end(run, setup)
        print(f"samples setup_s={len(setup)} jobs={len(run.times_ns[False])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {run.failed / run.executions:.6g} ({run.failed}/{run.executions} jobs failed)")
    for k, problems in sorted(run.problems.items()):
        if problems:
            print(f"FAILED job {k} [{inputs.jobs[k].key}]: {'; '.join(problems[:5])}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.executions,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
