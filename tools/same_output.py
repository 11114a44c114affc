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

Prints each job whose exit code, stdout or stderr differs, with the streams
that differ, and exits 1 if any job differs; 0 otherwise. A job whose
stdout differs only in KL values (the sweep ``kl`` field, covary's ``kl:``
line or compare's kl column, compared cell by cell so that column widths
do not matter) is reported as such, with its largest relative KL
difference; the last line counts these jobs and gives the largest relative
KL difference over all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from checker import split_kl  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

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
            model = src / "gsens" / "fixtures" / f"{job.model[len('fixture:'):]}.json"
        else:
            model = workdir / job.model
        argvs.append([job.command, str(model), *job.args])
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

    compared = differing = kl_only = 0
    worst = 0.0
    for workload in WORKLOADS:
        for seed in args.seeds:
            inputs = generate(workload, seed)
            with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
                workdir = Path(tmp)
                for name, text in inputs.files.items():
                    (workdir / name).write_text(text)
                parent, change = (run_tree(src, inputs.jobs, workdir) for src in trees)
            for job, a, b in zip(inputs.jobs, parent, change):
                compared += 1
                streams = [s for s in ("code", "stdout", "stderr") if a[s] != b[s]]
                if not streams:
                    continue
                differing += 1
                gap = kl_gap(job, a["stdout"], b["stdout"]) if streams == ["stdout"] else None
                if gap is not None:
                    kl_only += 1
                    worst = max(worst, gap[0])
                    print(
                        f"DIFF {workload} seed={seed} [{job.key}]: kl only, largest relative "
                        f"difference {gap[0]:.3g} (parent {gap[1]!r}, change {gap[2]!r})"
                    )
                    continue
                print(f"DIFF {workload} seed={seed} [{job.key}]: {', '.join(streams)}")
                for s in streams:
                    print(f"  parent {s}: {a[s]!r:.400}")
                    print(f"  change {s}: {b[s]!r:.400}")
    print(
        f"{compared} jobs compared, {differing} differ, {kl_only} of them only in KL values "
        f"(largest relative KL difference {worst:.3g})"
    )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
