"""Check that two gsens source trees give the same output on the benchmark jobs.

Usage (from the repository root):

    python3 tools/same_output.py PARENT CHANGE [--seeds 3 9]

PARENT and CHANGE are each a checkout's root or its ``src``, the directory
that holds the ``gsens`` package. Every job of the grid-sweeps, ci-scale and point-queries
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
rows the certificate cannot decide, sweeps with --summary, whose
admissibility summary goes to stderr, a sweep2 whose factor products
overflow (1e160 at two positions under row, column and partial), a sweep2
at --tol 1e-15, where no step-2 certificate of cimodel passes and so every
touched statement goes to steps 3 and 4, a covary whose negative-factor
warning comes before its refused row set's error, JSON sweeps with
Infinity and NaN cells, negative-factor warnings and a total error row,
sweep configs, as CSV and as JSON, whose scheme list holds one kind in
several slots (row three times, one with an explicit E, next to a column
scheme with an explicit F), compare at 1e-300 and on a singular base with one statement (five
inadmissible rows), covary under each way a plan's mask is made ("none",
a position outside every block, total with a statement index, in range
and out of range, a row fill on the diagonal), point queries on a
singular base (covary), with a refused total (compare at -1), at factor 0
(compare and covary) and outside the statement's block (compare), check
on a model whose statements condition on 0 to 4 variables with one failing
(its witness), on the singular bases, and with --tol 0, and
usage errors (covary without --delta, sweep with
--tol nan, covary with --scheme bogus) and sweep --help placed between
other jobs, so that each runner's next job reuses its parser after them.

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
    # the same singular base with one statement, for compare
    "edge-singular-one.json": json.dumps({
        "variables": ["a", "b", "c"],
        "covariance": [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "ci": [{"A": ["a"], "B": ["c"], "C": ["b"]}],
    }),
    # a _||_ d | {b, c} holds; the standard change at (c, b) by 2 makes
    # Sigma_CC exactly singular, so no certificate exists and model_holds decides
    "edge-collinear.json": json.dumps({
        "variables": ["a", "b", "c", "d"],
        "covariance": [[2.0, 1.0, 0.5, 0.5], [1.0, 1.0, 0.5, 0.5], [0.5, 0.5, 1.0, 1.0], [0.5, 0.5, 1.0, 2.0]],
        "ci": [{"A": ["a"], "B": ["d"], "C": ["b", "c"]}],
    }),
    # a chain a -> ... -> g and a lone h: statements with |C| = 0 to 4 (k = 5
    # takes the LU branch) that hold, and a _||_ c | d, which fails
    "edge-mixed.json": json.dumps({
        "variables": list("abcdefgh"),
        "dag": {"order": list("abcdefgh"), "edges": [
            {"from": u, "to": v, "beta": beta}
            for u, v, beta in zip("abcdef", "bcdefg", (0.8, -0.6, 0.7, 0.5, -0.9, 0.6))
        ]},
        "ci": [{"A": ["h"], "B": ["a", "c"]}, {"A": ["a"], "B": ["c"], "C": ["b"]},
               {"A": ["a"], "B": ["d", "e"], "C": ["b", "c"]}, {"A": ["a"], "B": ["c"], "C": ["d"]},
               {"A": ["a", "b"], "B": ["e"], "C": ["c", "d", "h"]}, {"A": ["a"], "B": ["f", "g"], "C": list("bcde")}],
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
# one scheme kind in several slots of the scheme list, next to explicit E and F sets
REPEATED = [{"kind": "row", "E": ["Y2", "Y3"]}, "row", "standard", {"kind": "column", "F": ["Y1"]}, "row"]
EDGE_FILES.update({
    name: json.dumps({"model": "edge-synthetic4.json", "positions": [["Y2", "Y1"]], "deltas": [-0.5, 0.9, 1.1],
                      "schemes": REPEATED, "format": fmt})
    for name, fmt in (("edge-repeat.json", "csv"), ("edge-repeat-json.json", "json"))
})
SYNTH = "fixture:synthetic4"
EDGE_JOBS = [
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas=-2,-0.5,0.9,1.1")),
    # usage errors and --help between other jobs: the next job reuses the parser
    Job("covary", SYNTH, ("--pos", "Y2,Y1")),
    Job("sweep", SYNTH, ("--pos", "Y3,Y2", "--deltas=-1,1.2", "--format", "json"), fmt="json"),
    Job("sweep2", SYNTH, ("--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas=-0.5,1.1", "--deltas2", "0.9,1.2")),
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas", "1e-300,1e300")),
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas", "0.9", "--tol", "nan")),
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas", "1e200,1e300")),
    Job("sweep2", SYNTH, ("--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas", "1e-300,0.9", "--deltas2", "1e300")),
    Job("sweep2", SYNTH, ("--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas", "1e-200", "--deltas2", "1e-200")),
    Job("sweep2", "fixture:cachexia_control", ("--pos", "V,B", "--pos2", "GC,B", "--deltas", "1e300",
                                               "--schemes", "standard,total")),
    Job("covary", SYNTH, ("--pos", "Y2,Y1", "--delta", "1e300", "--scheme", "total")),
    Job("covary", SYNTH, ("--pos", "Y2,Y1", "--delta", "1.1", "--scheme", "bogus")),
    Job("compare", SYNTH, ("--pos", "Y2,Y1", "--delta", "1e300")),
    Job("sweep", "", ("--help",)),
    Job("compare", SYNTH, ("--pos", "Y2,Y1", "--delta", "1e-300")),
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
    Job("compare", "edge-singular-one.json", ("--pos", "b,a", "--delta", "1.1")),
    Job("sweep2", SYNTH, ("--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas=-0.5,-1e-200",
                          "--deltas2", "1e-200,1.1")),
    Job("sweep", "edge-collinear.json", ("--pos", "c,b", "--deltas", "0.5,1,2,3", "--schemes", "standard")),
    # --summary: admissible counts and the interval around 1 on stderr
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas=-2,-0.5,0.9,1.1", "--summary")),
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas", "0.9,1.1,0.9", "--summary")),
    Job("sweep2", SYNTH, ("--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas", "0.9,1.1", "--summary")),
    # factor products that overflow, and a tolerance no step-2 certificate meets
    Job("sweep2", SYNTH, ("--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas", "1e160", "--deltas2", "1e160",
                          "--schemes", "row,column,partial")),
    Job("sweep2", SYNTH, ("--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas", "0.9,1.1", "--deltas2", "1.2",
                          "--tol", "1e-15")),
    Job("sweep", "edge-singular.json", ("--pos", "a,b", "--deltas", "0.5,1,1.5", "--summary")),
    # a negative-factor warning, then the refused row set's error
    Job("covary", SYNTH, ("--pos", "Y2,Y1", "--delta=-0.5", "--scheme", "row", "--E", "Y1")),
    # Infinity and NaN cells, negative-factor warnings and a total error row in JSON
    Job("sweep2", "fixture:cachexia_control", ("--pos", "V,B", "--pos2", "GC,B", "--deltas", "1e300",
                                               "--schemes", "standard,total", "--format", "json"), fmt="json"),
    Job("sweep", SYNTH, ("--pos", "Y2,Y1", "--deltas=-2,1e-300,1e300", "--format", "json"), fmt="json"),
    Job("sweep", "", ("--config", "{inputs}/edge-repeat.json")),
    Job("sweep", "", ("--config", "{inputs}/edge-repeat-json.json"), fmt="json"),
    # one covary per way a plan's mask is made: the position alone ("none", and
    # outside every block), the whole matrix (total, whose plan drops the
    # statement index; an out-of-range index is refused before a negative
    # factor) and a row fill on the diagonal
    Job("covary", SYNTH, ("--pos", "Y2,Y1", "--delta", "1.1", "--scheme", "none")),
    Job("covary", SYNTH, ("--pos", "Y4,Y1", "--delta=-0.5", "--scheme", "partial")),
    Job("covary", SYNTH, ("--pos", "Y2,Y1", "--delta", "1.1", "--scheme", "total", "--statement", "1")),
    Job("covary", SYNTH, ("--pos", "Y2,Y1", "--delta=-1", "--scheme", "total", "--statement", "2")),
    Job("covary", SYNTH, ("--pos", "Y2,Y2", "--delta=-1.1", "--scheme", "row")),
    # point queries whose base has no whitener, whose plan is refused, whose
    # factor is 0, and whose position lies outside the statement's block
    Job("covary", "edge-singular-one.json", ("--pos", "b,a", "--delta", "1.1", "--scheme", "partial")),
    Job("compare", SYNTH, ("--pos", "Y2,Y1", "--delta=-1")),
    Job("compare", SYNTH, ("--pos", "Y2,Y1", "--delta", "0")),
    Job("covary", SYNTH, ("--pos", "Y2,Y1", "--delta", "0")),
    Job("compare", SYNTH, ("--pos", "Y4,Y1", "--delta", "1.1")),
    # check: conditioning sets of sizes 0 to 4 decided together, one failing
    # statement's witness; a singular Sigma_CC and an exactly singular one
    # after the change, which enumerate; rel = 0, which enumerates too
    Job("check", "edge-mixed.json", ()),
    Job("check", "edge-singular.json", ()),
    Job("check", "edge-collinear.json", ()),
    Job("check", "edge-mixed.json", ("--tol", "0")),
    Job("check", SYNTH, ("--tol", "0")),
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
    parser.add_argument("parent", type=Path, help="a checkout's root or its src")
    parser.add_argument("change", type=Path, help="a checkout's root or its src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 9])
    args = parser.parse_args(argv)
    trees = []
    for path in (args.parent, args.change):
        src = next((d for d in (path, path / "src") if (d / "gsens" / "cli.py").is_file()), None)
        if src is None:
            parser.error(f"{path} holds no gsens package, nor does its src")
        trees.append(src.resolve())

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
