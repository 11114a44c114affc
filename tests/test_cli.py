import json
import tracemalloc
import warnings

import pytest

from conftest import model5
from gsens import ModelFormatError, load_model
from gsens.cli import build_parser, main
from gsens.fixtures import fixture_path

SYNTH = str(fixture_path("synthetic4"))
CACHEXIA = str(fixture_path("cachexia"))


def test_check_passing_model(capsys):
    assert main(["check", SYNTH]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "Y3" in out


def test_check_failing_model(tmp_path, capsys):
    path = tmp_path / "bad_model.json"
    path.write_text(
        json.dumps(
            {
                "variables": ["a", "b"],
                "covariance": [[1.0, 0.5], [0.5, 1.0]],
                "ci": [{"A": ["a"], "B": ["b"]}],
            }
        )
    )
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness" in out


def test_check_model_without_statements(capsys):
    assert main(["check", CACHEXIA]) == 0
    assert "no conditional-independence statements" in capsys.readouterr().out


def test_build_cov(capsys):
    assert main(["build-cov", SYNTH]) == 0
    out = capsys.readouterr().out
    assert "63" in out and "Y4" in out


def test_build_cov_requires_dag(capsys):
    assert main(["build-cov", CACHEXIA]) == 1
    assert "no dag" in capsys.readouterr().err


def test_covary_preserving_and_admissible(capsys):
    assert main(["covary", SYNTH, "--pos", "Y2,Y1", "--delta", "1.05", "--scheme", "partial"]) == 0
    out = capsys.readouterr().out
    assert "verdict: preserving" in out
    assert "admissible: yes" in out
    plan = json.loads(out.splitlines()[0].removeprefix("plan: "))
    assert plan["positions"] == [{"i": "Y1", "j": "Y2", "delta": 1.05}]
    assert plan["scheme"]["kind"] == "partial"


def test_covary_inadmissible_exit_code(capsys):
    assert main(["covary", SYNTH, "--pos", "2,1", "--delta", "1.25", "--scheme", "partial"]) == 2
    out = capsys.readouterr().out
    assert "admissible: no" in out
    assert "verdict: preserving" in out  # algebra holds even outside the cone


def test_covary_none_scheme_breaks_model(capsys):
    assert main(["covary", SYNTH, "--pos", "2,1", "--delta", "1.05", "--scheme", "none"]) == 0
    assert "NOT preserving" in capsys.readouterr().out


def test_covary_row_with_explicit_set(capsys):
    code = main(
        ["covary", SYNTH, "--pos", "Y3,Y1", "--delta", "1.02", "--scheme", "row", "--E", "Y3"]
    )
    assert code == 0
    assert '"E": ["Y3"]' in capsys.readouterr().out


def test_union_validity_does_not_depend_on_the_factor(tmp_path, rng, capsys):
    # two statements sharing the (3,3) entry; a lone column Y3 at (4,3)
    # cannot be mirrored without altering their union block, at any factor
    path = tmp_path / "m5.json"
    names = ["Y1", "Y2", "Y3", "Y4", "Y5"]
    path.write_text(json.dumps({
        "variables": names,
        "covariance": model5(rng).tolist(),
        "ci": [{"A": ["Y4"], "B": ["Y1", "Y2"], "C": ["Y3"]},
               {"A": ["Y2", "Y4"], "B": ["Y5"], "C": ["Y3"]}],
    }))
    for delta in ("0.9", "1.0", "1.1"):
        argv = ["covary", str(path), "--pos", "Y4,Y3", "--scheme", "column", "--F", "Y3", "--delta", delta]
        assert main(argv) == 1
        assert "not symmetrizable" in capsys.readouterr().err
    assert main(["sweep", str(path), "--pos", "Y4,Y3", "--schemes", "column", "--F", "Y3",
                 "--deltas", "0.9,1.0,1.1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == [f"{d},,column,,,false,false" for d in ("0.9", "1.0", "1.1")]


def test_covary_invalid_scheme_set(capsys):
    code = main(
        ["covary", SYNTH, "--pos", "Y2,Y1", "--delta", "1.1", "--scheme", "row", "--E", "Y3"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_covary_row_set_may_add_left_rows_to_the_conditioning_rows(capsys):
    # rows {Y2} u {Y3} of the block of Y3 _||_ Y1 | Y2: scaling whole rows
    # scales every minor by a power of the factor
    argv = ["covary", SYNTH, "--pos", "Y2,Y1", "--delta", "1.1", "--scheme", "row", "--E", "Y2,Y3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert '"E": ["Y2", "Y3"]' in out
    assert "verdict: preserving" in out


def test_covary_bad_set_is_named_one_based(capsys):
    argv = ["covary", SYNTH, "--pos", "Y3,Y1", "--delta", "1.1", "--scheme", "column", "--F", "Y1,Y3"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: column set [1, 3] does not fit position (1,3): ")


NEGATIVE_ROW = (
    "warning: negative factor -0.5 under a row covariation flips the sign of the covaried "
    "entries; allowed, but rarely intended\n"
)
ROW_SET_Y1 = (
    "row set [1] does not fit position (1,2): a row set must lie within the block rows [2, 3] "
    "and cover the position, and one that meets the block columns must contain [2] (else its "
    "fill is not symmetrizable without altering the block)"
)


def test_covary_warns_of_the_negative_factor_before_refusing_the_set(capsys):
    argv = ["covary", SYNTH, "--pos", "Y2,Y1", "--delta=-0.5", "--scheme", "row", "--E", "Y1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == NEGATIVE_ROW + f"error: {ROW_SET_Y1}\n"


def test_sweep_warns_of_the_negative_factor_and_keeps_the_refused_rows(capsys):
    argv = ["sweep", SYNTH, "--pos", "Y2,Y1", "--deltas=-0.5,0.9", "--schemes", "row", "--E", "Y1"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == NEGATIVE_ROW
    assert captured.out.splitlines()[1:] == ["-0.5,,row,,,false,false", "0.9,,row,,,false,false"]
    assert main([*argv, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == NEGATIVE_ROW
    assert [row["error"] for row in json.loads(captured.out)] == [ROW_SET_Y1] * 2


def test_sweep_csv_to_stdout(capsys):
    code = main(["sweep", SYNTH, "--pos", "Y2,Y1", "--deltas", "0.99,1.0,1.01"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "delta1,delta2,scheme,kl,frobenius,admissible,preserving"
    assert len(lines) == 1 + 3 * 5


def test_sweep_total_kl_keeps_its_digits_near_one(capsys):
    # the total scheme's KL is n/2 (x - log1p(x)) with x = delta - 1; for
    # n = 4 and x near 1e-8 the series x^2 (1 - 2x/3) is exact to rounding
    delta = 1.00000001
    assert main(["sweep", SYNTH, "--pos", "Y2,Y1", "--deltas", repr(delta)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    (total,) = [row for row in rows if row[2] == "total"]
    x = delta - 1.0
    assert float(total[3]) == pytest.approx(x * x * (1.0 - 2.0 * x / 3.0), rel=1e-12)


def test_sweep_writes_file_and_summary(tmp_path, capsys):
    out_path = tmp_path / "records.csv"
    code = main(
        [
            "sweep",
            SYNTH,
            "--pos",
            "Y2,Y1",
            "--deltas",
            "0.99,1.0,1.01",
            "--schemes",
            "total,partial",
            "-o",
            str(out_path),
            "--summary",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "summary total" in captured.err
    assert out_path.read_text().startswith("delta1,")


def test_sweep_with_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": SYNTH,
                "positions": [["Y2", "Y1"]],
                "deltas": [0.99, 1.0, 1.01],
                "schemes": ["total"],
                "format": "json",
            }
        )
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert len(parsed) == 3 and parsed[0]["scheme"] == "total"


def test_sweep2(capsys):
    code = main(
        [
            "sweep2",
            SYNTH,
            "--pos",
            "Y2,Y2",
            "--pos2",
            "Y3,Y2",
            "--deltas",
            "0.99,1.01",
            "--deltas2",
            "1.0",
            "--schemes",
            "standard,partial",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 2 * 1 * 2
    assert lines[1].split(",")[1] == "1.0"  # delta2 column populated


def test_condition(capsys):
    path = fixture_path("synthetic4")
    assert main(["condition", str(path), "--evidence", "Y2=1"]) == 0
    out = capsys.readouterr().out
    assert "Y1  0.4" in out
    assert "conditional covariance" in out


def test_condition_unknown_variable(capsys):
    assert main(["condition", SYNTH, "--evidence", "Zed=1"]) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_condition_non_finite_evidence_exits_one(value, capsys):
    assert main(["condition", SYNTH, "--evidence", f"Y2={value}"]) == 1
    captured = capsys.readouterr()
    shown = "nan" if value == "nan" else "inf"
    assert captured.out == ""
    assert captured.err == f"error: evidence value for variable 2 is {shown}, not finite\n"


def test_condition_singular_evidence_block_exits_two(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(
        json.dumps(
            {
                "variables": ["a", "b", "c"],
                "covariance": [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            }
        )
    )
    assert main(["condition", str(path), "--evidence", "a=1,b=1"]) == 2
    assert "singular" in capsys.readouterr().err


def test_covary_with_statement_index(capsys):
    code = main(
        [
            "covary",
            SYNTH,
            "--pos",
            "Y2,Y1",
            "--delta",
            "1.05",
            "--scheme",
            "partial",
            "--statement",
            "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert '"statement_index": 1' in out


def test_compare_table(capsys):
    assert main(["compare", SYNTH, "--pos", "Y2,Y1", "--delta", "1.02"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["scheme", "frobenius", "kl", "admissible"]
    assert "total" in out and "standard" in out


def test_compare_takes_no_tolerance(capsys):
    # compare decides nothing by tolerance: admissibility is exact
    with pytest.raises(SystemExit) as exc:
        main(["compare", SYNTH, "--pos", "Y2,Y1", "--delta", "1.02", "--tol", "1e-9"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_compare_requires_the_model_like_covary_and_sweep(tmp_path, capsys):
    # a _||_ c | b fails on an equicorrelated covariance: no command runs on it
    path = tmp_path / "equi.json"
    path.write_text(json.dumps({"variables": ["a", "b", "c"],
                                "covariance": [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]],
                                "ci": [{"A": ["a"], "B": ["c"], "C": ["b"]}]}))
    error = ("error: covariance does not satisfy the model: statement 1 fails with minor rows {a,b} x cols "
             "{b,c} = -0.25\n")
    for argv in (["compare", "--pos", "b,a", "--delta", "1.1"], ["covary", "--pos", "b,a", "--delta", "1.1"],
                 ["sweep", "--pos", "b,a", "--deltas", "1.1"]):
        assert main([argv[0], str(path), *argv[1:]]) == 1
        assert capsys.readouterr().err == error


def test_asymmetric_covariance_prints_plain_floats(tmp_path, capsys):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({"variables": ["A", "B"], "covariance": [[1, 0.5], [0.25, 1]]}))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == "error: covariance is asymmetric at (A,B): 0.5 vs 0.25\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["condition", SYNTH, "--evidence", "Z=1"],
        ["covary", SYNTH, "--pos", "Y2,Z", "--delta", "1.1"],
        ["covary", SYNTH, "--pos", "Y3,Y1", "--delta", "1.1", "--scheme", "column", "--F", "Z"],
        ["sweep", SYNTH, "--pos", "Z,Y1", "--deltas", "1.1"],
        ["sweep", SYNTH, "--pos", "Y3,Y1", "--deltas", "1.1", "--schemes", "row", "--E", "Z"],
    ],
    ids=["condition", "covary", "covary-F", "sweep", "sweep-E"],
)
def test_unknown_variable_message_is_not_quoted(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: unknown variable 'Z'; model has Y1, Y2, Y3, Y4\n"


def test_missing_model_file(capsys):
    assert main(["check", "/nonexistent/model.json"]) == 1
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{tmp}"],
        ["sweep", "--config", "{tmp}"],
        ["sweep", SYNTH, "--pos", "Y2,Y1", "--deltas", "1.0", "-o", "{tmp}/missing/out.csv"],
        ["sweep", SYNTH, "--pos", "Y2,Y1", "--delta-min", "0.5", "--delta-max", "1e308",
         "--delta-step", "1e-308"],
    ],
    ids=["check-directory", "config-directory", "output-in-missing-directory", "uncountable-grid"],
)
def test_bad_path_or_grid_gives_one_error_line(argv, tmp_path, capsys):
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["check", "{path}"], ["sweep", "--config", "{path}"]], ids=["check", "sweep-config"])
def test_a_file_that_is_not_utf8_is_a_model_format_error_naming_it(argv, tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b'\xff\xfe{"variables": []}')
    assert main([a.replace("{path}", str(path)) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"
    with pytest.raises(ModelFormatError, match="not UTF-8"):
        load_model(path)


_FACTORS_2000 = ",".join(repr(1 + k * 1e-4) for k in range(2000))


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep", SYNTH, "--pos", "Y2,Y1", "--delta-step", "1e-12"],
         "error: deltas: 500000000001 factors from min to max by step exceed 1000000\n"),
        (["sweep2", SYNTH, "--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas", _FACTORS_2000,
          "--deltas2", _FACTORS_2000], "error: 4000000 grid points exceed 1000000\n"),
    ],
    ids=["sweep-step", "sweep2-lists"],
)
def test_oversized_grid_is_refused_before_it_is_built(argv, message, capsys):
    tracemalloc.start()
    try:
        assert main(argv) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == ("", message)
    assert peak < 8 << 20  # bytes: the grid itself would take far more


def test_usage_error_exits_with_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["covary", SYNTH, "--pos", "Y2,Y1"])  # missing --delta
    assert exc.value.code == 1


def _write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", SYNTH, "--pos", "Y2,Y1", "--deltas", "nan,1.0"],
        ["covary", SYNTH, "--pos", "Y2,Y1", "--delta", "inf"],
        [
            "sweep",
            "--config",
            {"model": SYNTH, "positions": [["Y2", "Y1"]], "deltas": [0.9, float("nan")]},
        ],
    ],
    ids=["sweep-deltas", "covary-delta", "config-deltas"],
)
def test_non_finite_factor_rejected(argv, tmp_path, capsys):
    argv = [_write_config(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err
    assert "warning:" not in captured.err  # main reports warnings itself


@pytest.mark.parametrize(
    "argv",
    [
        ["--pos", "Y3,Y1", "--delta", "1.02", "--scheme", "row", "--E", "Y3"],
        ["--pos", "Y2,Y1", "--delta", "1.05", "--scheme", "partial", "--statement", "1"],
    ],
    ids=["row-E", "statement"],
)
def test_covary_plan_scheme_round_trips_through_sweep_config(argv, tmp_path, capsys):
    main(["covary", SYNTH, *argv])
    printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    plan = json.loads(printed["plan"])
    (step,) = plan["positions"]
    cfg = _write_config(
        tmp_path,
        {
            "model": SYNTH,
            "positions": [[step["i"], step["j"]]],
            "deltas": [step["delta"]],
            "schemes": [plan["scheme"]],
            "format": "json",
        },
    )
    assert main(["sweep", "--config", cfg]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["error"] is None
    assert f"{row['frobenius']:.12g}" == printed["frobenius"]
    assert ("yes" if row["admissible"] else "no") == printed["admissible"]
    assert f"{row['kl']:.12g}" == printed["kl"]


@pytest.mark.parametrize(
    "flags, config",
    [
        (
            ["sweep", SYNTH, "--pos", "Y2,Y1", "--deltas", "0.9,1.1", "--schemes", "standard,row",
             "--E", "Y2"],
            {"positions": [["Y2", "Y1"]], "deltas": [0.9, 1.1],
             "schemes": ["standard", {"kind": "row", "E": ["Y2"]}]},
        ),
        (
            ["sweep2", SYNTH, "--pos", "Y2,Y1", "--pos2", "3,2", "--delta-min", "0.9",
             "--delta-max", "1.1", "--delta-step", "0.1", "--deltas2", "1.0,1.05",
             "--schemes", "total,column", "--F", "1", "--format", "json"],
            {"positions": [["Y2", "Y1"], [3, 2]], "deltas": {"min": 0.9, "max": 1.1, "step": 0.1},
             "deltas2": [1.0, 1.05], "schemes": ["total", {"kind": "column", "F": [1]}],
             "format": "json"},
        ),
    ],
    ids=["sweep", "sweep2"],
)
def test_flags_and_config_give_identical_output(flags, config, tmp_path, capsys):
    assert main(flags) == 0
    by_flags = capsys.readouterr().out
    cfg = _write_config(tmp_path, {"model": SYNTH, **config})
    assert main([flags[0], "--config", cfg]) == 0
    assert capsys.readouterr().out == by_flags


def test_sweep_config_needs_a_scheme(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"model": SYNTH, "positions": [["Y2", "Y1"]], "deltas": [1.0], "schemes": []})
    assert main(["sweep", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: a sweep needs at least one scheme\n"


def test_sweep2_config_needs_two_positions(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"model": SYNTH, "positions": [["Y2", "Y1"]], "deltas": [1.0]})
    assert main(["sweep2", "--config", cfg]) == 1
    assert "exactly 2 positions" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", SYNTH],
        ["covary", SYNTH, "--pos", "Y2,Y1", "--delta", "1.05"],
        ["sweep", SYNTH, "--pos", "Y2,Y1", "--deltas", "0.9"],
        ["sweep2", SYNTH, "--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas", "0.9"],
    ],
    ids=lambda a: a[0],
)
def test_bad_tolerance_rejected(argv, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", value])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = [x for x in captured.err.splitlines() if "error:" in x]
    assert "--tol" in line and "finite number >= 0" in line


def test_sweep_config_refuses_request_flags(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"model": SYNTH, "positions": [["Y2", "Y1"]], "deltas": [1.0]})
    assert main(["sweep", "--config", cfg, "--deltas", "0.5", "--schemes", "total"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --config cannot be combined with --deltas, --schemes\n"
    assert main(["sweep", SYNTH, "--config", cfg, "--delta-min", "0.9", "--E", "Y2"]) == 1
    assert "with model, --delta-min, --E" in capsys.readouterr().err
    # output options still apply to a config
    assert main(["sweep", "--config", cfg, "--format", "json", "--tol", "1e-8", "--summary"]) == 0
    captured = capsys.readouterr()
    assert len(json.loads(captured.out)) == 5 and "summary total" in captured.err


def test_warnings_have_a_stable_format(capsys):
    # the position lies outside the statement block: every scheme warns
    argv = ["covary", SYNTH, "--pos", "Y4,Y1", "--delta", "1.001", "--scheme", "row"]
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "warning: position (1,4) lies outside the statement block; "
            "no covariation is needed and none is applied\n"
        )


def test_extreme_factors_print_no_numpy_warnings(capsys):
    # the products overflow to inf; the rows keep their values and stderr
    # stays empty. The total rows' KL, 2 (x - log1p x) with x = delta - 1,
    # rounds to 2e+200 and 2e+300 (a 50-digit evaluation agrees)
    assert main(["sweep", SYNTH, "--pos", "Y2,Y1", "--deltas", "1e200,1e300"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "delta1,delta2,scheme,kl,frobenius,admissible,preserving\n"
        "1e+200,,standard,,inf,false,false\n"
        "1e+200,,total,2e+200,inf,true,false\n"
        "1e+200,,partial,,inf,false,false\n"
        "1e+200,,row,,inf,false,true\n"
        "1e+200,,column,,inf,false,true\n"
        "1e+300,,standard,,inf,false,false\n"
        "1e+300,,total,2e+300,inf,true,false\n"
        "1e+300,,partial,,inf,false,false\n"
        "1e+300,,row,,inf,false,true\n"
        "1e+300,,column,,inf,false,true\n"
    )


def test_a_finite_kl_near_the_float_limit_prints_finite(tmp_path, capsys):
    # Sigma = I2 under total at 1e308: each of the two eigenvalues is
    # nu = 1e308 - 1, so KL = nu - log1p(nu), which rounds to 1e+308; the
    # sum of the two unhalved terms would overflow
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"variables": ["A", "B"], "covariance": [[1, 0], [0, 1]]}))
    assert main(["sweep", str(path), "--pos", "A,B", "--deltas", "1e308", "--schemes", "total"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1e+308,,total,1e+308,inf,true,true"
    assert main(["covary", str(path), "--pos", "A,B", "--delta", "1e308", "--scheme", "total"]) == 0
    assert "kl: 1e+308\n" in capsys.readouterr().out


def test_zero_product_grid_point_is_an_error_row(capsys):
    # total and partial scale some entries by both factors, and
    # 1e-200 * 1e-200 underflows to zero there: those rows carry the plan
    # error, the others stay as the per-row definition gives them
    argv = ["sweep2", SYNTH, "--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--deltas", "1e-200", "--deltas2", "1e-200"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "delta1,delta2,scheme,kl,frobenius,admissible,preserving\n"
        "1e-200,1e-200,standard,,58.0,false,false\n"
        "1e-200,1e-200,total,,,false,false\n"
        "1e-200,1e-200,partial,,,false,false\n"
        "1e-200,1e-200,row,,91.0,false,true\n"
        "1e-200,1e-200,column,,91.0,false,true\n"
    )
    assert main([*argv, "--format", "json"]) == 0
    errors = [r["error"] for r in json.loads(capsys.readouterr().out)]
    assert errors == [None, "plan product has zero entries", "plan product has zero entries", None, None]


def test_non_finite_changes_are_inadmissible_rows(capsys):
    # 1e300 * 1e300 overflows: the standard change holds inf entries and the
    # total target inf * 0 = NaN over the zero covariances
    control = str(fixture_path("cachexia_control"))
    argv = ["sweep2", control, "--pos", "V,B", "--pos2", "GC,B", "--deltas", "1e300", "--schemes", "standard,total"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "delta1,delta2,scheme,kl,frobenius,admissible,preserving\n"
        "1e+300,1e+300,standard,,inf,false,true\n"
        "1e+300,1e+300,total,,nan,false,false\n"
    )


def _synthetic(edit):
    model = json.loads(fixture_path("synthetic4").read_text())
    edit(model)
    return model


def _break_entry(model):
    del model["dag"]
    model["covariance"][0][1] = model["covariance"][1][0] = 2.5


def _add_false_statements(model):
    model["ci"] += [{"A": ["Y4"], "B": ["Y1"], "C": ["Y2", "Y3"]},
                    {"A": ["Y3"], "B": ["Y1", "Y4"], "C": ["Y2"]}]


def _control_entries():
    model = json.loads(fixture_path("cachexia_control").read_text())
    model["covariance"][0][2] = model["covariance"][2][0] = 3.0
    model["covariance"][1][2] = model["covariance"][2][1] = -1e-6
    return model


_DAG5 = {
    "variables": ["X1", "X2", "X3", "X4", "X5"],
    "dag": {
        "order": ["X1", "X2", "X3", "X4", "X5"],
        "edges": [{"from": a, "to": b, "beta": beta} for a, b, beta in (
            ("X1", "X2", 0.5), ("X1", "X3", -0.4), ("X2", "X4", 0.7), ("X3", "X4", 0.3),
            ("X1", "X5", 0.2), ("X2", "X5", 0.6), ("X3", "X5", -0.5), ("X4", "X5", 0.4))],
    },
    "ci": [{"A": ["X5"], "B": ["X1"], "C": ["X2", "X3", "X4"]}, {"A": ["X4"], "B": ["X1"], "C": ["X2", "X3"]}],
}


# Expected texts are the output of the exhaustive minor enumeration that
# decided every statement before the residual test: the witness is still the
# first non-vanishing minor in enumeration order, to the byte.
@pytest.mark.parametrize(
    "model, expected",
    [
        (_synthetic(_break_entry),
         "FAIL  {Y3} _||_ {Y1} | {Y2}  witness minor rows {Y2,Y3} x cols {Y1,Y2} = 2.5\n"),
        (_synthetic(_add_false_statements),
         "ok    {Y3} _||_ {Y1} | {Y2}\n"
         "FAIL  {Y4} _||_ {Y1} | {Y2,Y3}  witness minor rows {Y2,Y3,Y4} x cols {Y1,Y2,Y3} = 1\n"
         "FAIL  {Y3} _||_ {Y1,Y4} | {Y2}  witness minor rows {Y2,Y3} x cols {Y1,Y4} = 4\n"),
        (_control_entries(),
         "FAIL  {B} _||_ {GC}  witness minor rows {B} x cols {GC} = 3\n"
         "FAIL  {V} _||_ {GC}  witness minor rows {V} x cols {GC} = -1e-06\n"
         "ok    {A} _||_ {GC}\n"),
        (_DAG5,
         "FAIL  {X5} _||_ {X1} | {X2,X3,X4}  witness minor rows {X2,X3,X4,X5} x cols {X1,X2,X3,X4} = -0.2\n"
         "ok    {X4} _||_ {X1} | {X2,X3}\n"),
    ],
    ids=["entry", "false-statements", "marginal", "lu-minor"],
)
def test_check_witness_text(model, expected, tmp_path, capsys):
    assert main(["check", _write_config(tmp_path, model)]) == 1
    assert capsys.readouterr().out == expected


class TestParserReuse:
    """main may run many commands in one process on one parser: nothing a
    call parses, prints or fails on carries over to the next call."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_summary_flag_does_not_stick(self, capsys):
        argv = ["sweep", SYNTH, "--pos", "Y2,Y1", "--deltas", "0.9,1.1", "--schemes", "total"]
        assert main([*argv, "--summary"]) == 0
        assert "summary total" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_row_set_does_not_stick(self, capsys):
        # the default row set at (Y3,Y1) is {Y3}, so a leftover Y2 would show
        argv = ["covary", SYNTH, "--pos", "Y3,Y1", "--delta", "1.02", "--scheme", "row"]
        assert main([*argv, "--E", "Y2,Y3"]) == 0
        assert '"E": ["Y2", "Y3"]' in capsys.readouterr().out
        assert main(argv) == 0
        plan = json.loads(capsys.readouterr().out.splitlines()[0].removeprefix("plan: "))
        assert plan["scheme"] == {"kind": "row", "E": ["Y3"]}

    def test_usage_error_after_a_success_goes_to_this_calls_stderr(self, capsys):
        assert main(["check", SYNTH]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["covary", SYNTH, "--pos", "Y2,Y1"])  # missing --delta
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: gsens covary")
        assert "gsens covary: error: the following arguments are required: --delta" in captured.err

    def test_help_reads_the_width_when_it_prints(self, monkeypatch, capsys):
        build_parser()
        texts = {}
        for columns in (60, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--help"])
            assert exc.value.code == 0
            texts[columns] = capsys.readouterr().out
        assert max(len(line) for line in texts[60].splitlines()) <= 60
        assert max(len(line) for line in texts[200].splitlines()) > 60
        assert texts[60].split() == texts[200].split()


def test_precondition_failure_names_the_first_failing_statement(tmp_path, capsys):
    # on the chain a -> b -> c -> d, a _||_ c | b and b _||_ d | c hold and
    # a _||_ c | d fails
    path = tmp_path / "chain.json"
    edges = [{"from": u, "to": v, "beta": 0.5} for u, v in ("ab", "bc", "cd")]
    ci = [{"A": ["a"], "B": ["c"], "C": ["b"]}, {"A": ["b"], "B": ["d"], "C": ["c"]},
          {"A": ["a"], "B": ["c"], "C": ["d"]}]
    path.write_text(json.dumps({"variables": list("abcd"), "dag": {"order": list("abcd"), "edges": edges},
                                "ci": ci}))
    prefix = "error: covariance does not satisfy the model: statement 3 fails with minor rows "
    assert main(["sweep", str(path), "--pos", "b,a", "--deltas", "0.9,1.1"]) == 1
    assert capsys.readouterr().err == prefix + "{a,d} x cols {c,d} = 0.25\n"
    assert main(["covary", str(path), "--pos", "b,a", "--delta", "0.9", "--scheme", "partial"]) == 1
    assert capsys.readouterr().err == prefix + "{a,d} x cols {c,d} = 0.25\n"
