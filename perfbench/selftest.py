"""Tests of the benchmark's own code: generator, checker and tracer.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default test run;
they exercise the benchmark, not gsens.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import SCHEMES, WORKLOADS, Job, generate  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    first = generate(workload, 7)
    assert first.dump() == generate(workload, 7).dump()
    assert first.dump() != generate(workload, 8).dump()
    assert first.jobs and all(j.fixture or j.model in first.files for j in first.jobs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_values_not_shape(workload):
    # DAG shapes, positions and grids come from the fixed shape stream, so
    # two seeds differ only in decimal values and ask for the same work.
    decimal = re.compile(r"-?\d+\.\d+")
    first, second = generate(workload, 7).dump(), generate(workload, 8).dump()
    assert decimal.sub("#", first) == decimal.sub("#", second)


def _csv(rows) -> str:
    lines = ["delta1,delta2,scheme,kl,frobenius,admissible,preserving"]
    lines += [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


# frobenius per scheme at a factor != 1: total > partial > row, column > standard
FROB = {"standard": "1.0", "total": "5.0", "partial": "3.0", "row": "2.0", "column": "1.5"}


def _good_rows():
    rows = []
    for delta in ("0.9", "1.0", "1.1"):
        for scheme in SCHEMES:
            frob = "0.0" if delta == "1.0" else FROB[scheme]
            kl = "0.0" if delta == "1.0" else "0.01"
            rows.append([delta, "", scheme, kl, frob, "true", "true"])
    return rows


JOB = Job("sweep", "gen.json", ("--pos", "X2,X1"), grid=(3,))


def test_checker_accepts_valid_sweep():
    problems, rows = checker.check_job(JOB, 0, _csv(_good_rows()), {})
    assert problems == [] and rows == 15


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda rows: rows[0].__setitem__(3, "-1e-15"), id="negative-kl"),
        pytest.param(lambda rows: rows[0].__setitem__(5, "false"), id="flipped-admissible"),
        pytest.param(lambda rows: rows.pop(7), id="dropped-row"),
        pytest.param(lambda rows: rows[2].__setitem__(4, "9.0"), id="frobenius-ordering"),
        pytest.param(lambda rows: rows[7].__setitem__(3, "1e-3"), id="nonzero-kl-at-one"),
        pytest.param(lambda rows: rows[13].__setitem__(6, "false"), id="not-preserving"),
    ],
)
def test_checker_rejects_corrupted_sweep(corrupt):
    rows = _good_rows()
    corrupt(rows)
    problems, _ = checker.check_job(JOB, 0, _csv(rows), {})
    assert problems


@pytest.mark.parametrize("command", ["sweep", "compare", "covary", "condition"])
def test_checker_reports_malformed_output(command):
    job = Job(command, "fixture:f", (), grid=(3,), n=4, evidence=1)
    problems, _ = checker.check_job(job, 0, "x,y\nnot a table\n", {})
    assert problems


def test_checker_rejects_covary_exit_code_mismatch():
    job = Job("covary", "gen.json", ("--pos", "X2,X1", "--delta", "1.1"))
    text = "plan: {}\nverdict: preserving\nadmissible: no\nfrobenius: 1\nkl: unavailable (x)\n"
    assert checker.check_job(job, 2, text, {})[0] == []
    assert checker.check_job(job, 0, text, {})[0]


def test_checker_rejects_failed_check_line():
    job = Job("check", "gen.json", ())
    assert checker.check_job(job, 0, "ok    {X1} _||_ {X2}\n", {})[0] == []
    assert checker.check_job(job, 0, "ok    a\nFAIL  b  witness c\n", {})[0]


def test_reference_tolerates_kl_digits_only():
    job = Job("sweep", "fixture:f", (), grid=(3,))
    text = _csv(_good_rows())
    reference = {job.key: checker.reference_entry(job, 0, text)}
    assert checker.check_job(job, 0, text.replace("0.01,", "0.0100000001,"), reference)[0] == []
    assert checker.check_job(job, 0, text.replace("0.01,", "0.0101,"), reference)[0]
    assert checker.check_job(job, 0, text.replace(",5.0,", ",5.000000001,"), reference)[0]


def test_self_time_on_nested_span_tree():
    tr = tracing.Tracer()
    # root [0, 100] with children a [10, 40] and b [50, 90]; a has a1 [15, 25]
    tr.spans = [
        ["root", 0, 100, -1, 0, False],
        ["a", 10, 40, 0, 0, False],
        ["a1", 15, 25, 1, 0, False],
        ["b", 50, 90, 0, 0, False],
    ]
    assert tr.self_times() == {"root": 30, "a": 20, "a1": 10, "b": 40}
    assert sum(tr.self_times().values()) == 100


def test_wrapped_calls_nest_and_record_errors():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)

    def boom():
        raise ValueError("no")

    failing = tr.wrap("boom", boom)

    def outer(x):
        with contextlib.suppress(ValueError):
            failing()
        return inner(inner(x))

    assert tr.run_job(3, outer, 1) == 3
    names = [s[tracing.NAME] for s in tr.spans]
    assert names == [tracing.ROOT, "boom", "inner", "inner"]
    assert [s[tracing.PARENT] for s in tr.spans] == [-1, 0, 0, 0]
    assert [s[tracing.RAISED] for s in tr.spans] == [False, True, False, False]
    assert {s[tracing.JOB] for s in tr.spans} == {3}


def _bindings():
    import gsens.cli  # noqa: F401  (loads every module the CLI uses)

    out = {}
    for _, modname, fname in tracing.TARGETS + (("", "gsens.matcore", "iter_minors"),):
        original = getattr(sys.modules[modname], fname)
        for module, attr in tracing._bindings(original):
            out[(module.__name__, attr)] = original
    return out


def test_wrappers_restore_original_bindings():
    before = _bindings()
    assert ("gsens.analysis", "build_plan") in before and ("gsens.cimodel", "iter_minors") in before
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert sys.modules["gsens.analysis"].build_plan is not before[("gsens.analysis", "build_plan")]
            assert sys.modules["gsens.cimodel"].iter_minors is not before[("gsens.cimodel", "iter_minors")]
            raise RuntimeError("leave the context by an error")
    for (modname, attr), original in before.items():
        assert getattr(sys.modules[modname], attr) is original


def test_traced_job_output_and_self_time_sum():
    import gsens.cli

    model = HERE.parent / "src" / "gsens" / "fixtures" / "synthetic4.json"
    argv = ["sweep", str(model), "--pos", "Y2,Y1", "--deltas", "0.9,1.0,1.1"]

    def run(tr=None):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = gsens.cli.main(argv) if tr is None else tr.run_job(0, gsens.cli.main, argv)
        return code, out.getvalue()

    plain = run()
    tr = tracing.Tracer()
    with tracing.installed(tr):
        traced = run(tr)
    assert traced == plain
    metrics = tracing.layer_metrics(tr, 1)
    layer_sum = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert layer_sum == pytest.approx(metrics["trace.job_ms"], rel=1e-9)
    assert metrics["covariation.build_plan.calls"] == 12  # 3 factors x 4 plan schemes
    assert metrics["cimodel.minors"] > 0
