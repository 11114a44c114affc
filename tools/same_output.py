"""Check that two gsens source trees give the same output on the benchmark jobs.

Usage (from the repository root):

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC [--seeds 3 9]

PARENT_SRC and CHANGE_SRC are directories holding a ``gsens`` package (a
checkout's ``src``). Every job of the grid-sweeps, ci-scale and point-queries
workloads of ``perfbench/workloads.py``, at each seed, runs through each
tree's ``gsens.cli.main``: one subprocess per tree runs all the jobs in turn.
Fixture jobs read each tree's own bundled fixture; generated models are
written once to a temporary directory both trees read. In stdout and
stderr, the tree's source directory reads ``<src>`` and the temporary
directory ``<inputs>``.

EDGE_JOBS, a fixed list of jobs the benchmark never runs, are compared once
as well: negative factors (total error rows and the order of warnings),
factors near 1e-300 and 1e300, a position outside every statement block,
explicit --E/--F sets, a sweep config with statement_index, duplicate grid
values, a singular base covariance, a sweep2 with one negative factor, a
sweep2 whose zero-product grid point sits between negative-factor warnings,
a standard sweep that makes a conditioning block exactly singular, whose
rows the certificate cannot decide, and sweeps with --summary, whose
admissibility summary goes to stderr.

Prints each job whose exit code, stdout or stderr differs, with the streams
that differ, and exits 1 if any job differs; 0 otherwise. A job whose
stdout differs only in KL values (the sweep ``kl`` field, covary's ``kl:``
line or compare's kl column, compared cell by cell so that column widths
do not matter) is reported as such, with its largest relative KL
difference, and so is a job whose stderr differs only in numpy
floating-point warning lines ("warning: ... encountered in ..."). The last
three lines count the differing benchmark and edge-case jobs, these kinds
among them, and give the largest relative KL difference.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from checker import split_kl  # noqa: E402
from workloads import WORKLOADS, Job, generate  # noqa: E402

# Model and config files of the edge-case jobs; "{inputs}" in a job argument
# is the directory that holds them.
EDGE_FILES = {
    "edge-singular.json": json.dumps({
        "variables": ["a", "b", "c"],
        "covariance": [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "ci": [{"A": ["a"], "B": ["c"]}, {"A": ["a"], "B": ["c"], "C": ["b"]}],
    }),
    # a _||_ d | {b, c} holds; the standard change at (c, b) by 2 makes
    # Sigma_CC exactly singular, so no certificate exists and model_holds decides
    "edge-collinear.json": json.dumps({
        "variables": ["a", "b", "c", "d"],
        "covariance": [[2.0, 1.0, 0.5, 0.5], [1.0, 1.0, 0.5, 0.5], [0.5, 0.5, 1.0, 1.0], [0.5, 0.5, 1.0, 2.0]],
        "ci": [{"A": ["a"], "B": ["d"], "C": ["b", "c"]}],
    }),
    "edge-synthetic4.json": (ROOT / "src" / "gsens" / "fixtures" / "synthetic4.json").read_text(),
    "edge-config.json": json.dumps({
        "model": "edge-synthetic4.json",
        "positions": [["Y2", "Y1"]],
        "deltas": [-0.5, 0.9, 1.1],
        "schemes": [{"kind": "partial", "statement_index": 1}, {"kind": "row", "statement_index": 2},
                    {"kind": "column", "F": ["Y1"], "statement_index": 1}],
    }),
}
SYNTH = "fixture:synthetic4"
EDGE_JOBS = [
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas=-2,-0.5,0.9,1.1")),
    Job("sweep", SYNTH, ("--pos", "Y3,Y2", "--deltas=-1,1.2", "--format", "json"), fmt="json"),
    Job("sweep2", SYNTH, ("--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas=-0.5,1.1", "--deltas2", "0.9,1.2")),
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas", "1e-300,1e300")),
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas", "1e200,1e300")),
    Job("sweep2", SYNTH, ("--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas", "1e-300,0.9", "--deltas2", "1e300")),
    Job("sweep2", SYNTH, ("--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas", "1e-200", "--deltas2", "1e-200")),
    Job("sweep2", "fixture:cachexia_control", ("--pos", "V,B", "--pos2", "GC,B", "--deltas", "1e300",
                                               "--schemes", "standard,total")),
    Job("covary", SYNTH, ("--pos", "Y2,Y1", "--delta", "1e300", "--scheme", "total")),
    Job("compare", SYNTH, ("--pos", "Y2,Y1", "--delta", "1e300")),
    Job("sweep", SYNTH, ("--pos", "Y4,Y1", "--deltas=-0.5,0.9,1.1")),
    Job("sweep2", SYNTH, ("--pos", "Y4,Y1", "--pos2", "Y2,Y1", "--deltas", "0.9,1.1", "--schemes", "partial,row")),
    Job("sweep", SYNTH, ("--pos", "Y3,Y1", "--deltas", "0.9,1.1", "--schemes", "row,column", "--E", "Y3",
                         "--F", "Y1")),
    Job("sweep", SYNTH, ("--pos", "Y3,Y1", "--deltas=-1,1.1", "--schemes", "row,column", "--E", "Y1",
                         "--F", "Y4")),
    Job("sweep", "", ("--config", "{inputs}/edge-config.json")),
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas", "1.1,0.9,1.1,0.9")),
    Job("sweep", "edge-singular.json", ("--pos", "a,b", "--deltas", "0.5,1,1.5")),
    Job("sweep2", "edge-singular.json", ("--pos", "a,b", "--pos2", "b,c", "--deltas=-1,2")),
    Job("sweep2", SYNTH, ("--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas=-0.5,-1e-200",
                          "--deltas2", "1e-200,1.1")),
    Job("sweep", "edge-collinear.json", ("--pos", "c,b", "--deltas", "0.5,1,2,3", "--schemes", "standard")),
    # --summary: admissible counts and the interval around 1 on stderr
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas=-2,-0.5,0.9,1.1", "--summary")),
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas", "0.9,1.1,0.9", "--summary")),
    Job("sweep2", SYNTH, ("--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas", "0.9,1.1", "--summary")),
    Job("sweep", "edge-singular.json", ("--pos", "a,b", "--deltas", "0.5,1,1.5", "--summary")),
]
NUMPY_WARNING = re.compile(r"^warning: .* encountered in .*\n", re.MULTILINE)

# Runs in the subprocess: argv lists on stdin, one JSON result per job on stdout.
RUNNER = r"""
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from gsens.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            code = "crash: " + traceback.format_exc()
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
json.dump(results, sys.stdout)
"""

# One BLAS thread, as in the benchmark, so both trees see the same rounding.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_tree(src: Path, jobs, workdir: Path) -> list[dict]:
    """Every job through src's cli.main in one subprocess, paths normalised."""
    argvs = []
    for job in jobs:
        if job.fixture:
            model = [str(src / "gsens" / "fixtures" / f"{job.model[len('fixture:'):]}.json")]
        else:
            model = [str(workdir / job.model)] if job.model else []
        argvs.append([job.command, *model, *(a.replace("{inputs}", str(workdir)) for a in job.args)])
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, str(src)],
        input=json.dumps(argvs), capture_output=True, text=True,
        env={**os.environ, **THREAD_ENV}, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: the job runner for {src} failed:\n{done.stderr}")
    results = json.loads(done.stdout)
    for r in results:
        for stream in ("stdout", "stderr"):
            r[stream] = r[stream].replace(str(src), "<src>").replace(str(workdir), "<inputs>")
        if isinstance(r["code"], str):
            r["code"] = r["code"].replace(str(src), "<src>")
    return results


def kl_gap(job, parent: str, change: str) -> tuple[float, float, float] | None:
    """(largest relative difference, parent value, change value) over the KL
    values of two outputs that differ in nothing else; None when anything
    else differs."""
    try:
        (rest_a, kls_a), (rest_b, kls_b) = split_kl(job, parent), split_kl(job, change)
    except (ValueError, IndexError):
        return None
    if rest_a != rest_b or [a is None for a in kls_a] != [b is None for b in kls_b]:
        return None
    gaps = [
        (abs(a - b) / max(abs(a), abs(b)), a, b)
        for a, b in zip(kls_a, kls_b)
        if a is not None and a != b
    ]
    return max(gaps, default=(0.0, 0.0, 0.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 9])
    args = parser.parse_args(argv)
    trees = [p.resolve() for p in (args.parent_src, args.change_src)]
    for src in trees:
        if not (src / "gsens" / "cli.py").is_file():
            parser.error(f"{src} holds no gsens package")

    batches = []
    for workload in WORKLOADS:
        for seed in args.seeds:
            inputs = generate(workload, seed)
            batches.append((f"{workload} seed={seed}", inputs.files, inputs.jobs))
    batches.append(("edge-cases", EDGE_FILES, EDGE_JOBS))

    counts = {side: {"compared": 0, "differ": 0, "kl": 0, "numpy": 0} for side in ("benchmark", "edge-case")}
    worst = 0.0
    for label, files, jobs in batches:
        with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
            workdir = Path(tmp)
            for name, text in files.items():
                (workdir / name).write_text(text)
            parent, change = (run_tree(src, jobs, workdir) for src in trees)
        count = counts["edge-case" if jobs is EDGE_JOBS else "benchmark"]
        for job, a, b in zip(jobs, parent, change):
            count["compared"] += 1
            streams = [s for s in ("code", "stdout", "stderr") if a[s] != b[s]]
            if not streams:
                continue
            count["differ"] += 1
            gap = kl_gap(job, a["stdout"], b["stdout"]) if streams == ["stdout"] else None
            if gap is not None:
                count["kl"] += 1
                worst = max(worst, gap[0])
                print(
                    f"DIFF {label} [{job.key}]: kl only, largest relative "
                    f"difference {gap[0]:.3g} (parent {gap[1]!r}, change {gap[2]!r})"
                )
                continue
            if streams == ["stderr"] and NUMPY_WARNING.sub("", a["stderr"]) == NUMPY_WARNING.sub("", b["stderr"]):
                count["numpy"] += 1
                print(f"DIFF {label} [{job.key}]: numpy warning lines only")
                continue
            print(f"DIFF {label} [{job.key}]: {', '.join(streams)}")
            for s in streams:
                print(f"  parent {s}: {a[s]!r:.400}")
                print(f"  change {s}: {b[s]!r:.400}")
    for side, c in counts.items():
        print(
            f"{c['compared']} {side} jobs compared, {c['differ']} differ, {c['kl']} of them only in KL "
            f"values, {c['numpy']} only in numpy warning lines"
        )
    print(f"largest relative KL difference {worst:.3g}")
    return 1 if any(c["differ"] for c in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
