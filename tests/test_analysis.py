import csv
import functools
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import SIGMA4, by_scheme, kl_within_rounding, random_dag
from gsens import (
    CIStatement,
    FactorError,
    GaussianDag,
    GsensError,
    InadmissibleError,
    ModelFormatError,
    ModelPreconditionError,
    RegionSummary,
    Scheme,
    SingularMatrixError,
    TolerancePolicy,
    Variation,
    admissible_region,
    analysis,
    build_plan,
    compose,
    dag_ci_statements,
    dag_to_gaussian,
    emit,
    load_model,
    load_sweep_config,
    model_holds,
    one_way_sweep,
    two_way_sweep,
)
from gsens.analysis import Model, SweepTable, resolve_scheme
from gsens import cimodel
from gsens.cli import main
from gsens.cimodel import require_model
from gsens.divergence import additive_shift, frobenius, kl_additive, kl_mp
from gsens.fixtures import fixture_path
from gsens.matcore import DEFAULT_TOL, iter_minors


@pytest.fixture
def toy_model():
    return load_model(fixture_path("synthetic4"))


def write_model(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLoadModel:
    def test_synthetic_fixture(self, toy_model):
        assert toy_model.names == ("Y1", "Y2", "Y3", "Y4")
        np.testing.assert_array_equal(toy_model.covariance, SIGMA4)
        assert len(toy_model.statements) == 1
        assert toy_model.dag is not None

    def test_cachexia_fixture(self):
        model = load_model(fixture_path("cachexia"))
        assert model.names == ("B", "V", "GC", "GM", "A", "F")
        gm = model.index("GM")
        assert model.covariance[gm, gm] == 3050126.0
        assert model.statements == ()

    def test_control_fixture_zero_entries(self):
        model = load_model(fixture_path("cachexia_control"))
        assert len(model.statements) == 3
        for s in model.statements:
            assert model.covariance[s.left[0], s.right[0]] == 0.0

    def test_minimal_single_variable(self, tmp_path):
        model = load_model(write_model(tmp_path, {"variables": ["x"], "covariance": [[1.0]]}))
        assert model.n == 1 and model.statements == ()

    def test_asymmetric_covariance_rejected(self, tmp_path):
        path = write_model(
            tmp_path,
            {"variables": ["a", "b"], "covariance": [[1.0, 0.5], [0.4, 1.0]]},
        )
        with pytest.raises(ModelFormatError, match="asymmetric"):
            load_model(path)

    def test_unknown_variable_in_ci_rejected(self, tmp_path):
        path = write_model(
            tmp_path,
            {
                "variables": ["a", "b"],
                "covariance": [[1.0, 0.0], [0.0, 1.0]],
                "ci": [{"A": ["a"], "B": ["z"]}],
            },
        )
        with pytest.raises(ModelFormatError, match="unknown variable 'z'"):
            load_model(path)

    @pytest.mark.parametrize("fields,message", [
        ({"ci": [{"A": ["a"], "B": ["z"]}]}, "ci[0].B[0]: unknown variable 'z'"),
        ({"ci": [{"A": ["a", 3], "B": ["b"]}]}, "ci[0].A[1]: unknown variable 3"),
        ({"ci": [{"A": [["a"]], "B": ["b"]}]}, "ci[0].A[0]: unknown variable ['a']"),
        ({"dag": {"order": ["a", "q"], "edges": []}}, "dag.order[1]: unknown variable 'q'"),
        ({"dag": {"order": ["a", "b"], "edges": [{"from": "a", "to": "y", "beta": 1}]}},
         "dag.edges[0].to[0]: unknown variable 'y'"),
        ({"dag": {"order": ["a", "b"], "edges": [], "intercepts": {"w": 1}}}, "dag.intercepts: unknown variable 'w'"),
        ({"dag": {"order": ["a", "b"], "edges": [], "cond_vars": {"b": 2, "v": 1}}},
         "dag.cond_vars: unknown variable 'v'"),
    ])
    def test_unknown_names_are_reported_where_they_occur(self, tmp_path, fields, message):
        payload = {"variables": ["a", "b"], **fields}
        if "dag" not in fields:
            payload["covariance"] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ModelFormatError) as info:
            load_model(write_model(tmp_path, payload))
        assert str(info.value) == message

    def test_dag_only_builds_covariance(self, tmp_path):
        path = write_model(
            tmp_path,
            {
                "variables": ["a", "b"],
                "dag": {"order": ["a", "b"], "edges": [{"from": "a", "to": "b", "beta": 2}]},
            },
        )
        model = load_model(path)
        np.testing.assert_array_equal(model.covariance, [[1, 2], [2, 5]])
        assert len(model.statements) == 0  # complete dag implies nothing

    def test_dag_covariance_disagreement_rejected(self, tmp_path):
        path = write_model(
            tmp_path,
            {
                "variables": ["a", "b"],
                "covariance": [[1.0, 2.0], [2.0, 6.0]],
                "dag": {"order": ["a", "b"], "edges": [{"from": "a", "to": "b", "beta": 2}]},
            },
        )
        with pytest.raises(ModelFormatError, match="disagree"):
            load_model(path)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 10**400])
    def test_non_finite_number_rejected(self, tmp_path, bad):
        path = write_model(tmp_path, {"variables": ["a"], "covariance": [[bad]]})
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(path)

    def test_unknown_top_level_field_rejected(self, tmp_path):
        path = write_model(
            tmp_path, {"variables": ["a"], "covariance": [[1.0]], "extra": 1}
        )
        with pytest.raises(ModelFormatError, match="unknown field"):
            load_model(path)

    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"variables": [}')
        with pytest.raises(ModelFormatError, match=r":1:16"):
            load_model(path)

    def test_explicit_ci_wins_over_dag(self, tmp_path):
        path = write_model(
            tmp_path,
            {
                "variables": ["a", "b", "c"],
                "ci": [],
                "dag": {
                    "order": ["a", "b", "c"],
                    "edges": [{"from": "a", "to": "b", "beta": 1}],
                },
            },
        )
        assert load_model(path).statements == ()

    def test_round_trip_through_dict(self, toy_model, tmp_path):
        names = toy_model.names
        payload = {
            "variables": list(names),
            "mean": toy_model.mean.tolist(),
            "covariance": toy_model.covariance.tolist(),
            "ci": [
                {key: [names[i] for i in side] for key, side in zip("ABC", (s.left, s.right, s.given))}
                for s in toy_model.statements
            ],
        }
        reloaded = load_model(write_model(tmp_path, payload, "round.json"))
        np.testing.assert_array_equal(reloaded.covariance, toy_model.covariance)
        np.testing.assert_array_equal(reloaded.mean, toy_model.mean)
        assert reloaded.statements == toy_model.statements

    def test_resolve_position(self, toy_model):
        assert toy_model.resolve_position("Y2,Y1") == (1, 0)
        assert toy_model.resolve_position("2,1") == (1, 0)
        assert toy_model.resolve_position(("Y4", "3")) == (3, 2)
        with pytest.raises(KeyError):
            toy_model.resolve_position("Y9,Y1")
        with pytest.raises(IndexError):
            toy_model.resolve_position("5,1")

    def test_resolve_names_and_one_based_indices(self, toy_model):
        assert toy_model.resolve(["Y3", 1, " 2 "]) == (2, 0, 1)
        with pytest.raises(IndexError):
            toy_model.resolve([0])
        with pytest.raises(ValueError, match="1-based index"):
            toy_model.resolve([2.0])


class TestResolveScheme:
    def test_kind_names(self, toy_model):
        assert resolve_scheme(toy_model, "standard") is None
        assert resolve_scheme(toy_model, "partial") == Scheme("partial")
        assert resolve_scheme(toy_model, {"kind": "standard"}) is None

    def test_sets_take_names_or_one_based_indices(self, toy_model):
        by_name = resolve_scheme(toy_model, {"kind": "row", "E": ["Y3"]})
        assert by_name == resolve_scheme(toy_model, {"kind": "row", "E": [3]}) == Scheme("row", (2,))
        assert resolve_scheme(toy_model, {"kind": "column", "F": ["Y1", 2]}) == Scheme("column", (0, 1))

    def test_sets_apply_to_their_own_kind_only(self, toy_model):
        entry = {"kind": "partial", "E": ["Y3"], "F": ["Y1"]}
        assert resolve_scheme(toy_model, entry) == Scheme("partial")

    def test_statement_index_is_one_based(self, toy_model):
        scheme = resolve_scheme(toy_model, {"kind": "partial", "statement_index": 1})
        assert scheme.statement_index == 0
        with pytest.raises(ModelFormatError, match="statement_index"):
            resolve_scheme(toy_model, {"kind": "partial", "statement_index": 0})

    def test_malformed_entries_rejected(self, toy_model):
        with pytest.raises(ValueError, match="unknown scheme kind"):
            resolve_scheme(toy_model, "bogus")
        with pytest.raises(ModelFormatError, match="unknown field"):
            resolve_scheme(toy_model, {"kind": "row", "rows": ["Y3"]})
        with pytest.raises(ModelFormatError, match="list"):
            resolve_scheme(toy_model, {"kind": "row", "E": "Y3"})
        with pytest.raises(KeyError):
            resolve_scheme(toy_model, {"kind": "row", "E": ["Y9"]})


class TestOneWaySweep:
    def test_unit_factor_rows_are_exact_zero(self, toy_model):
        table = one_way_sweep(toy_model, (1, 0), [1.0])
        assert len(table) == 5
        assert (table.kl == 0.0).all() and (table.frobenius == 0.0).all()
        assert table.admissible.all() and table.preserving.all()

    def test_standard_frobenius_matches_hand_formula(self, toy_model):
        table = one_way_sweep(toy_model, (1, 0), [0.9, 1.1], schemes=["standard"])
        expected = 2 * ((table.factors[:, 0] - 1.0) * SIGMA4[1, 0]) ** 2
        np.testing.assert_allclose(table.frobenius, expected, rtol=1e-12)

    def test_total_kl_smallest_at_every_common_point(self, toy_model):
        grid = [round(0.75 + k * 0.01, 10) for k in range(51)]
        table = one_way_sweep(toy_model, (1, 0), grid)
        kl, admissible = by_scheme(table, "kl"), by_scheme(table, "admissible")
        away = np.array(grid) != 1.0
        assert admissible["total"].all()
        for scheme in ("partial", "row", "column"):
            both = away & admissible[scheme]
            assert (kl["total"][both] < kl[scheme][both]).all()

    def test_preserving_flags(self, toy_model):
        table = one_way_sweep(toy_model, (1, 0), [1.05])
        flags = dict(zip(table.scheme, table.preserving.tolist()))
        assert flags == {
            "standard": False,
            "total": True,
            "partial": True,
            "row": True,
            "column": True,
        }

    def test_scheme_rows_kl_present_iff_admissible(self, toy_model):
        table = one_way_sweep(toy_model, (1, 0), [0.75, 1.0, 1.25])
        np.testing.assert_array_equal(~np.isnan(table.kl), table.admissible)

    @pytest.mark.filterwarnings("ignore:negative factor")
    def test_construction_error_recorded_per_row(self, toy_model):
        table = one_way_sweep(toy_model, (1, 0), [-0.5], schemes=["total", "partial"])
        assert table.scheme == ("total", "partial")
        assert table.error[0] is not None and not table.admissible[0]
        assert np.isnan(table.kl[0]) and np.isnan(table.frobenius[0])
        assert table.error[1] is None  # negative factors are legal here

    def test_model_must_satisfy_its_statements(self, tmp_path):
        path = write_model(
            tmp_path,
            {
                "variables": ["a", "b"],
                "covariance": [[1.0, 0.5], [0.5, 1.0]],
                "ci": [{"A": ["a"], "B": ["b"]}],
            },
        )
        with pytest.raises(ModelPreconditionError):
            one_way_sweep(load_model(path), (0, 1), [1.1])

    def test_zero_factor_rejected(self, toy_model):
        with pytest.raises(ValueError, match="exclude 0"):
            one_way_sweep(toy_model, (1, 0), [0.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_factor_rejected(self, toy_model, bad):
        with pytest.raises(FactorError, match="finite"):
            one_way_sweep(toy_model, (1, 0), [0.9, bad])

    def test_deterministic_and_order_independent(self, toy_model):
        grid = [0.9, 0.95, 1.0, 1.05, 1.1]
        a = emit(one_way_sweep(toy_model, (1, 0), grid), "csv")
        b = emit(one_way_sweep(toy_model, (1, 0), list(reversed(grid))), "csv")
        assert a == b

    def test_row_scheme_with_explicit_subset(self, toy_model):
        table = one_way_sweep(
            toy_model, (2, 0), [1.05], schemes=[Scheme("row", subset=(2,))]
        )
        assert table.preserving[0]


class TestTwoWaySweep:
    def test_unit_cell_is_zero(self, toy_model):
        table = two_way_sweep(toy_model, ((1, 1), (2, 1)), [1.0], [1.0])
        assert (table.kl == 0.0).all() and (table.frobenius == 0.0).all() and table.admissible.all()

    def test_masks_differ_between_standard_and_partial(self, toy_model):
        grid = [round(0.75 + k * 0.05, 10) for k in range(11)]
        table = two_way_sweep(
            toy_model, ((1, 1), (2, 1)), grid, grid, schemes=["standard", "partial"]
        )
        region = admissible_region(table)
        assert region.two_way
        flags = by_scheme(table, "admissible")
        assert (flags["standard"] != flags["partial"]).any()

    def test_total_cells_all_admissible(self, toy_model):
        grid = [0.5, 1.0, 2.0]
        table = two_way_sweep(toy_model, ((1, 1), (2, 1)), grid, grid, schemes=["total"])
        assert table.admissible.all()
        assert table.preserving.all()

    def test_grid_order(self, toy_model):
        table = two_way_sweep(
            toy_model, ((1, 1), (2, 1)), [1.0, 1.1], [0.9, 1.0], schemes=["total", "partial"]
        )
        assert table.factors.tolist() == [
            [1.0, 0.9], [1.0, 0.9],
            [1.0, 1.0], [1.0, 1.0],
            [1.1, 0.9], [1.1, 0.9],
            [1.1, 1.0], [1.1, 1.0],
        ]
        assert table.scheme == ("total", "partial") * 4

    def test_same_position_twice_rejected(self, toy_model):
        with pytest.raises(ValueError, match="distinct"):
            two_way_sweep(toy_model, ((1, 0), (0, 1)), [1.0])


def _region_by_rows(rows) -> RegionSummary:
    """The per-row scan admissible_region made over (delta1, delta2, scheme,
    admissible) rows, kept as the reference for the column version."""
    two_way = any(delta2 is not None for _, delta2, _, _ in rows)
    schemes = []
    for _, _, scheme, _ in rows:
        if scheme not in schemes:
            schemes.append(scheme)
    intervals, counts = {}, {}
    for s in schemes:
        mine = [r for r in rows if r[2] == s]
        counts[s] = (sum(r[3] for r in mine), len(mine))
        if not two_way:
            mine = sorted(mine, key=lambda r: r[0])
            best, run = None, []
            for r in mine + [None]:
                if r is not None and r[3]:
                    run.append(r)
                    continue
                if run and run[0][0] <= 1.0 <= run[-1][0]:
                    best = (run[0][0], run[-1][0])
                run = []
            intervals[s] = best
    return RegionSummary(two_way=two_way, intervals=intervals, cell_counts=counts)


REGION_FACTORS = st.sampled_from([-1.0, 0.5, 0.9, 1.0, 1.0, 1.1, 2.0])


class TestAdmissibleRegion:
    @settings(max_examples=300, deadline=None)
    @given(
        grid1=st.lists(REGION_FACTORS, min_size=1, max_size=8),
        grid2=st.none() | st.lists(REGION_FACTORS, min_size=1, max_size=3),
        schemes=st.lists(st.sampled_from(["standard", "total", "row"]), min_size=1, max_size=3, unique=True),
        pattern=st.lists(st.booleans(), min_size=72, max_size=72),
    )
    # two admissible runs contain 1; the later one is the interval
    @example(grid1=[1.0, 0.9, 1.0, 1.1, 1.0], grid2=None, schemes=["total"],
             pattern=[True, True, False, True, True] * 15)
    def test_columns_match_the_per_row_scan(self, grid1, grid2, schemes, pattern):
        # unsorted grids with duplicates, with and without a 1.0 point, and
        # any admissibility pattern
        points = [(d,) for d in grid1] if grid2 is None else list(itertools.product(grid1, grid2))
        rows = len(points) * len(schemes)
        admissible = pattern[:rows]
        table = SweepTable(
            factors=np.repeat(np.array(points), len(schemes), axis=0),
            scheme=tuple(schemes) * len(points),
            kl=np.zeros(rows),
            frobenius=np.zeros(rows),
            admissible=np.array(admissible),
            preserving=np.ones(rows, dtype=bool),
            error=(None,) * rows,
        )
        reference = [
            (p[0], p[1] if len(p) == 2 else None, s, a)
            for (p, s), a in zip(itertools.product(points, schemes), admissible)
        ]
        assert admissible_region(table) == _region_by_rows(reference)

    def test_total_interval_covers_the_grid(self, toy_model):
        grid = [round(0.75 + k * 0.05, 10) for k in range(11)]
        table = one_way_sweep(toy_model, (1, 0), grid, schemes=["total"])
        region = admissible_region(table)
        assert region.intervals["total"] == (0.75, 1.25)

    def test_interval_strictly_inside_grid(self, toy_model):
        # partial on this matrix loses admissibility around [0.98, 1.13]
        grid = [round(0.75 + k * 0.01, 10) for k in range(51)]
        table = one_way_sweep(toy_model, (1, 0), grid, schemes=["partial"])
        region = admissible_region(table)
        lo, hi = region.intervals["partial"]
        assert 0.75 < lo <= 1.0 <= hi < 1.25

    def test_all_inadmissible_reports_no_interval(self, tmp_path):
        # boundary matrix: inflating the off-diagonal entry at all breaks
        # positive semidefiniteness, so a grid of growth factors is all red
        payload = {
            "variables": ["a", "b"],
            "covariance": [[1.0, 1.0], [1.0, 1.0]],
        }
        model = load_model(write_model(tmp_path, payload))
        table = one_way_sweep(model, (0, 1), [1.5, 2.0], schemes=["partial"])
        region = admissible_region(table)
        assert region.intervals["partial"] is None
        assert region.cell_counts["partial"][0] == 0


class TestEmit:
    def test_csv_columns_and_empty_kl(self, toy_model):
        table = one_way_sweep(toy_model, (1, 0), [0.75], schemes=["partial"])
        text = emit(table, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "delta1,delta2,scheme,kl,frobenius,admissible,preserving"
        fields = lines[1].split(",")
        assert fields[0] == "0.75" and fields[1] == ""
        assert fields[3] == ""  # inadmissible: kl omitted
        assert fields[5] == "false" and fields[6] == "true"

    def test_csv_floats_round_trip(self, toy_model):
        table = one_way_sweep(toy_model, (1, 0), [1.05], schemes=["total"])
        text = emit(table, "csv")
        fields = text.strip().split("\n")[1].split(",")
        assert float(fields[3]) == table.kl[0]
        assert float(fields[4]) == table.frobenius[0]

    def test_json_round_trip(self, toy_model, tmp_path):
        table = one_way_sweep(toy_model, (1, 0), [0.9, 1.1])
        path = tmp_path / "out.json"
        text = emit(table, "json", path)
        assert path.read_text() == text
        parsed = json.loads(text)
        assert len(parsed) == len(table)
        assert parsed[0]["scheme"] == table.scheme[0]
        assert parsed[0]["kl"] == table.kl[0]

    @pytest.mark.filterwarnings("ignore:negative factor")
    @pytest.mark.parametrize("positions", [((1, 0),), ((1, 0), (2, 1))])
    def test_csv_and_json_agree_field_by_field(self, toy_model, positions):
        # error rows (total at negative factors, zero products at 1e-300 x
        # 1e-300), inadmissible rows and non-finite changes (1e300)
        grid = [-2.0, -0.5, 1e-300, 0.9, 1.0, 1e300]
        if len(positions) == 1:
            table = one_way_sweep(toy_model, positions[0], grid)
        else:
            table = two_way_sweep(toy_model, positions, grid)
        header, *body = csv.reader(io.StringIO(emit(table, "csv")))
        rows = json.loads(emit(table, "json"))
        assert len(body) == len(rows) == len(grid) ** len(positions) * 5
        assert header == list(analysis.CSV_COLUMNS)
        assert list(rows[0]) == [*analysis.CSV_COLUMNS, "error"]
        for fields, row in zip(body, rows):
            for name, field in zip(header, fields):
                value = row[name]
                if name == "scheme":
                    assert field == value
                elif name in ("admissible", "preserving"):
                    assert field == ("true" if value else "false")
                else:
                    assert field == ("" if value is None else repr(value)), (name, row)
            assert (row["kl"] is None) == (not row["admissible"])
            assert (row["frobenius"] is None) == (row["error"] is not None)
        assert any(r["error"] for r in rows) and not all(r["admissible"] for r in rows)
        assert any(r["frobenius"] is not None and not math.isfinite(r["frobenius"]) for r in rows)

    @pytest.mark.parametrize("rows", [0, 1, 6])
    def test_json_is_json_dumps_byte_for_byte(self, rows):
        # non-finite floats, None cells, flags, and strings json escapes
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1]
        table = SweepTable(
            factors=np.array([[specials[k], -specials[k - 1]] for k in range(rows)]).reshape(rows, 2),
            scheme=tuple(["row", 'r\u00f6w "E"\\\n'][k % 2] for k in range(rows)),
            kl=np.array(specials[:rows]),
            frobenius=np.array(specials[::-1][:rows]),
            admissible=np.arange(rows) % 2 == 0,
            preserving=np.arange(rows) % 3 == 0,
            error=tuple([None, "\u00e9\U0001f600\t"][k % 2] for k in range(rows)),
        )
        columns = analysis._columns(table)
        expected = json.dumps([dict(zip(columns, row)) for row in zip(*columns.values())], indent=2) + "\n"
        assert emit(table, "json") == expected

    @pytest.mark.parametrize("two_way,zeros", [(False, False), (True, False), (True, True)])
    def test_memoised_cells_equal_the_per_row_writers(self, two_way, zeros):
        # repeated, extreme and negative factors, NaN and infinite cells, error
        # rows; and 0.0 next to -0.0, equal keys that print differently
        factors = [1.1, 1.1, -0.5, 1e300, -1e300, 1e-300, 1.1, -0.5, 1e300, 0.9]
        if zeros:
            factors[4:6] = [0.0, -0.0]
        second = [2.0, 1e-300, 2.0, -1e300, 2.0, 0.5, 0.5, 1e300, 2.0, -0.5]
        rows = len(factors)
        table = SweepTable(
            factors=np.array([factors, second]).T if two_way else np.array([factors]).T,
            scheme=tuple(["standard", "total", "partial", "row", "column"][k % 5] for k in range(rows)),
            kl=np.array([0.1, math.nan, math.inf, 0.25, 0.1, -math.inf, 0.0, 0.1, 3.0, 0.5]),
            frobenius=np.array([math.inf, 1.5, math.nan, 1.5, -math.inf, 2.0, 1.5, math.nan, 0.3, 1e300]),
            admissible=np.array([True, True, True, False, True, True, False, True, False, True]),
            preserving=np.array([True, False, True, True, False, False, True, True, False, True]),
            error=tuple("plan product has zero entries" if k in (2, 7) else None for k in range(rows)),
        )
        records = []
        for k in range(rows):
            deltas = table.factors[k].tolist()
            records.append({
                "delta1": deltas[0],
                "delta2": deltas[1] if two_way else None,
                "scheme": table.scheme[k],
                "kl": float(table.kl[k]) if table.admissible[k] else None,
                "frobenius": None if table.error[k] is not None else float(table.frobenius[k]),
                "admissible": bool(table.admissible[k]),
                "preserving": bool(table.preserving[k]),
                "error": table.error[k],
            })
        assert emit(table, "json") == json.dumps(records, indent=2) + "\n"
        lines = [",".join(analysis.CSV_COLUMNS)]
        for record in records:
            cells = []
            for name in analysis.CSV_COLUMNS:
                value = record[name]
                if isinstance(value, bool):
                    cells.append("true" if value else "false")
                else:
                    cells.append("" if value is None else value if isinstance(value, str) else repr(value))
            lines.append(",".join(cells))
        assert emit(table, "csv") == "\n".join(lines) + "\n"

    def test_unknown_format(self, toy_model):
        with pytest.raises(ValueError):
            emit(one_way_sweep(toy_model, (1, 0), [1.0]), "xml")


class TestSweepConfig:
    def test_load_and_run(self, tmp_path):
        model_path = write_model(
            tmp_path,
            {
                "variables": ["a", "b"],
                "covariance": [[1.0, 0.2], [0.2, 1.0]],
            },
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "model": model_path.name,
                    "positions": [["a", "b"]],
                    "deltas": {"min": 0.9, "max": 1.1, "step": 0.1},
                    "schemes": ["standard", "total"],
                    "format": "csv",
                }
            )
        )
        cfg = load_sweep_config(cfg_path)
        assert cfg.model_path == model_path.resolve()
        assert cfg.deltas1 == (0.9, 1.0, 1.1)
        model = load_model(cfg.model_path)
        table = one_way_sweep(
            model, model.resolve_position(cfg.positions[0]), cfg.deltas1, cfg.schemes
        )
        assert len(table) == 6

    def test_bad_positions_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "m.json", "positions": ["a,b"], "deltas": [1.0]}))
        with pytest.raises(ModelFormatError, match="positions"):
            load_sweep_config(cfg_path)

    def test_grid_step_validation(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "model": "m.json",
                    "positions": [["a", "b"]],
                    "deltas": {"min": 1.0, "max": 0.5, "step": 0.1},
                }
            )
        )
        with pytest.raises(ModelFormatError, match="max < min"):
            load_sweep_config(cfg_path)

    def test_non_finite_grid_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {"model": "m.json", "positions": [["a", "b"]], "deltas": [0.9, float("inf")]}
            )
        )
        with pytest.raises(ModelFormatError, match=r"deltas\[1\]: expected a finite number"):
            load_sweep_config(cfg_path)

    def test_scheme_sets_and_statement_run_against_the_model(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "model": str(fixture_path("synthetic4")),
                    "positions": [[3, "Y1"]],
                    "deltas": [1.02],
                    "schemes": [
                        {"kind": "row", "E": ["Y3"]},
                        {"kind": "partial", "statement_index": 1},
                    ],
                }
            )
        )
        cfg = load_sweep_config(cfg_path)
        model = load_model(cfg.model_path)
        position = model.resolve_position(cfg.positions[0])
        table = one_way_sweep(model, position, cfg.deltas1, cfg.schemes)
        assert table.error == (None, None)
        assert table.preserving.all()


def _per_row(model, positions, grids, schemes, tol):
    """The sweep by its definition: every row builds its own plan (or
    additive change), measures it by the public definitions (frobenius of
    the target, and kl_mp or kl_additive of the change, inadmissible where
    that raises InadmissibleError or SingularMatrixError) and re-checks the
    model on the target. A row is (factors, scheme, kl, frobenius,
    admissible, preserving, error, change), None standing for an absent
    value."""
    require_model(model.covariance, model.statements, tol, model.names)
    cov, rows = model.covariance, []
    for deltas in itertools.product(*(sorted(g) for g in grids)):
        for entry in schemes:
            scheme = resolve_scheme(model, entry)
            label = "standard" if scheme is None else scheme.kind
            if scheme is None:
                shift = additive_shift(cov, positions, deltas)
                target, kl_of = cov + shift, functools.partial(kl_additive, cov, shift)
            else:
                # each position's plan in turn, composed: warnings and the first error in order
                plans = (build_plan(Variation(model.n, i, j, d), scheme, model.statements)
                         for (i, j), d in zip(positions, deltas))
                try:
                    plan = functools.reduce(compose, plans)
                except GsensError as e:
                    rows.append((deltas, label, None, None, False, False, str(e), None))
                    continue
                target, kl_of = plan.apply(cov), functools.partial(kl_mp, cov, plan)
                shift = (plan.product - 1.0) * cov
            try:
                value, admissible = kl_of(), True
            except (InadmissibleError, SingularMatrixError):
                value, admissible = None, False
            holds = model_holds(target, model.statements, tol).holds
            rows.append((deltas, label, value, frobenius(cov, target), admissible, holds, None, shift))
    return rows


def _run(sweep):
    """(the sweep or the exception raised, distinct warnings in order)."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        try:
            out = sweep()
        except Exception as e:
            out = (type(e), str(e))
    notes = []
    for w in caught:
        if issubclass(w.category, UserWarning) and str(w.message) not in notes:
            notes.append(str(w.message))
    return out, notes


def _same(a: float, b: float | None) -> bool:
    """A table cell equals the definition's value; the table holds NaN where
    the definition has no value (None)."""
    b = float("nan") if b is None else b
    return a == b or (a != a and b != b)


def assert_matches_definition(model, positions, grids, schemes, tol=DEFAULT_TOL):
    if len(positions) == 1:
        engine = _run(lambda: one_way_sweep(model, positions[0], grids[0], schemes, tol))
    else:
        engine = _run(lambda: two_way_sweep(model, positions, grids[0], grids[1], schemes, tol))
    reference = _run(lambda: _per_row(model, positions, grids, schemes, tol))
    assert engine[1] == reference[1]  # the same warnings, in the same order
    got, want = engine[0], reference[0]
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert isinstance(got, SweepTable) and len(got) == len(want)
    assert got.factors.shape == (len(want), len(positions))
    for k, w in enumerate(want):
        factors, scheme, kl, frob, admissible, preserving, error, shift = w
        assert (tuple(got.factors[k].tolist()), got.scheme[k], got.error[k]) == (factors, scheme, error)
        assert bool(got.preserving[k]) == preserving, w
        assert _same(got.frobenius[k], frob), w
        # the sweep may take a row's KL from its mask's spectrum, the
        # definition from the change's own: equal up to rounding
        row, exact = (float(got.kl[k]), bool(got.admissible[k])), (math.nan if kl is None else kl, admissible)
        if shift is None:  # an error row
            assert math.isnan(row[0]) and not row[1], w
        else:
            assert kl_within_rounding(model.covariance, shift, row, exact), w


FACTORS = st.sampled_from([-2.0, -0.5, 1e-300, 1e-160, 0.3, 1.0, 1.7, 1e160, 1e300]) | st.floats(0.5, 1.5)


def _random_model(rng) -> Model:
    dag = random_dag(rng, int(rng.integers(2, 8)), edge_prob=float(rng.uniform(0.2, 0.7)))
    mean, cov = dag_to_gaussian(dag)
    names = tuple(f"v{k}" for k in range(dag.n))
    return Model(names, mean, cov, dag_ci_statements(dag), dag)


def _random_scheme(rng, model: Model):
    kind = str(rng.choice(["standard", "total", "partial", "row", "column", "none"]))
    if kind == "standard":
        return kind
    size = int(rng.integers(1, model.n + 1))
    subset = tuple(int(k) for k in rng.choice(model.n, size=size, replace=False))
    pick = rng.integers(3)
    if kind in ("row", "column") and pick == 0:
        return Scheme(kind, subset)
    if pick == 1:
        return Scheme(kind, None, int(rng.integers(len(model.statements) + 1)))
    return kind


def _edge_model(name: str) -> Model:
    """A bundled fixture, or one of two models written out here: integer5
    has an integer covariance, so its minors vanish exactly, and singular3
    a singular covariance that satisfies its statements."""
    if name == "integer5":
        edges = ((0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0), (2, 3, 1.0), (2, 4, -1.0), (1, 4, 1.0))
        dag = GaussianDag.from_edges(5, edges)
        mean, cov = dag_to_gaussian(dag)
        return Model(tuple("abcde"), mean, cov, dag_ci_statements(dag), dag)
    if name == "singular3":
        cov = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        statements = (CIStatement((0,), (2,)), CIStatement((0,), (2,), (1,)))
        return Model(tuple("abc"), np.zeros(3), cov, statements)
    return load_model(fixture_path(name))


def _count_enumerations(monkeypatch) -> list:
    """A list that gains an entry whenever cimodel enumerates a statement's
    minors (step 4, or a witness read)."""
    calls, enumerate_ = [], cimodel._first_witness
    monkeypatch.setattr(cimodel, "_first_witness", lambda *a: calls.append(a) or enumerate_(*a))
    return calls


class TestSweepEngine:
    """The mask-batched sweep against the per-row definition."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        grid1=st.lists(FACTORS, min_size=1, max_size=3),
        grid2=st.none() | st.lists(FACTORS, min_size=1, max_size=3),
    )
    @example(seed=1, grid1=[-0.5, 1e-300, 1e300], grid2=None)
    @example(seed=1, grid1=[-0.5, 1e-300, 1.2], grid2=[1e300, 0.9])
    # a variance times 1e160: the change is positive semidefinite, and the
    # rounding of its zero eigenvalues decides the flag on either way
    @example(seed=3244, grid1=[1e160], grid2=None)
    def test_rows_match_the_per_row_definition(self, seed, grid1, grid2):
        rng = np.random.default_rng(seed)
        model = _random_model(rng)
        try:
            require_model(model.covariance, model.statements, DEFAULT_TOL, None)
        except ModelPreconditionError:
            assume(False)
        keys = [(i, j) for i in range(model.n) for j in range(model.n) if i >= j]
        count = 1 if grid2 is None else 2
        picks = rng.choice(len(keys), size=count, replace=False)
        positions = tuple(keys[k][:: int(rng.choice([1, -1]))] for k in picks)
        schemes = [_random_scheme(rng, model) for _ in range(int(rng.integers(1, 5)))]
        grids = [grid1] if grid2 is None else [grid1, grid2]
        assert_matches_definition(model, positions, grids, schemes)

    @pytest.mark.parametrize("name,positions,grids,schemes", [
        # negative factors: warnings in row order, total error rows
        ("synthetic4", ((1, 0),), [[-2.0, -0.5, 1.1]], ["total", "partial", "row", "column"]),
        # a position outside the block next to negative factors
        ("synthetic4", ((3, 0), (1, 0)), [[-1.0, 2.0], [-0.5, 1.5]], ["partial", "standard", "row"]),
        # products that underflow to zero are error rows, after the earlier warnings
        ("synthetic4", ((1, 0), (2, 1)), [[-1.0, 1e-200], [1e-200]], ["row", "total"]),
        # products that overflow over zero covariances are inadmissible rows
        ("cachexia_control", ((1, 0), (2, 1)), [[0.5, 1e300], [1e300]], ["standard", "total"]),
        # a singular base: every row is inadmissible, and still checked
        ("singular3", ((1, 0), (2, 1)), [[-1.0, 0.5, 1.5], [2.0]], ["standard", "total", "partial", "row"]),
        # a zero product between negative-factor warnings: the sweep goes on
        ("synthetic4", ((1, 0), (2, 1)), [[-0.5, -1e-200], [1e-200, 1.1]], ["standard", "total", "partial", "row"]),
        # a zero product off the diagonal, where the target would be positive definite
        ("integer5", ((1, 0), (2, 0)), [[1e-200, 2.0], [1e-200]], ["column", "row"]),
    ])
    def test_edge_grids_match_the_definition(self, name, positions, grids, schemes):
        assert_matches_definition(_edge_model(name), positions, grids, schemes)

    @pytest.mark.parametrize("name,positions", [
        ("synthetic4", ((1, 0), (2, 1))),
        ("synthetic4", ((2, 0),)),
        ("integer5", ((2, 1), (4, 3))),
    ])
    def test_forced_fallback_matches_the_definition(self, name, positions, monkeypatch):
        # at rel = 1e-30 no certificate passes, so every touched statement
        # has its minors enumerated (step 4) unless its confirming minor
        # fails; both models have integer covariances, whose minors vanish
        # exactly
        model = _edge_model(name)
        grid = [-0.5, 0.8, 1.0, 1.3]
        grids = [grid] * len(positions)
        schemes = ["standard", "total", "partial", "row", "column"]
        tol = TolerancePolicy(1e-30)
        assert_matches_definition(model, positions, grids, schemes, tol)
        calls = _count_enumerations(monkeypatch)
        if len(positions) == 1:
            _run(lambda: one_way_sweep(model, positions[0], grid, schemes, tol))
        else:
            _run(lambda: two_way_sweep(model, positions, grid, grid, schemes, tol))
        assert len(calls) > len(grid) ** len(positions)

    @pytest.mark.parametrize("name,positions,grids,schemes", [
        # negative-factor warnings, total error rows and extreme factors
        ("synthetic4", ((1, 0),), [[-2.0, -0.5, 1e-300, 0.8, 1.0, 1.1, 1e300]],
         ["standard", "total", "partial", "row", "column"]),
        # zero products between negative-factor warnings, schemes repeated and mixed
        ("synthetic4", ((1, 0), (2, 1)), [[-0.5, -1e-200, 0.9, 1.1], [1e-200, 1.1, -1.0]],
         ["row", "standard", "total", "partial", "row", "column"]),
        ("integer5", ((2, 1), (4, 3)), [[-0.5, 0.8, 1.3], [1.2, -2.0, 0.9]],
         ["column", "total", "standard", "partial", "row"]),
    ])
    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_blocks_of_a_few_rows_give_the_one_block_table(self, name, positions, grids, schemes, rows, monkeypatch):
        model = _edge_model(name)
        measured, measure = [], analysis.measure
        monkeypatch.setattr(analysis, "measure", lambda *a: measured.append(1) or measure(*a))

        def sweep():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if len(positions) == 1:
                    table = one_way_sweep(model, positions[0], grids[0], schemes)
                else:
                    table = two_way_sweep(model, positions, *grids, schemes)
            return table, [(w.category, str(w.message)) for w in caught]

        (whole, notes), blocks = sweep(), len(measured)
        assert blocks == 1 and len(whole) <= analysis.BLOCK_ENTRIES // model.n**2
        monkeypatch.setattr(analysis, "BLOCK_ENTRIES", rows * model.n**2)
        split, split_notes = sweep()
        # an underflowing product becomes an error row within its block
        assert len(measured) - blocks >= -(-sum(e is None for e in whole.error) // rows) > 1
        assert notes and split_notes == notes
        assert (split.scheme, split.error) == (whole.scheme, whole.error) and any(whole.error)
        for column in ("factors", "kl", "frobenius", "admissible", "preserving"):
            assert getattr(split, column).tobytes() == getattr(whole, column).tobytes(), column

    def test_builds_each_axis_plan_once_and_rechecks_only_standard_rows(self, toy_model, monkeypatch):
        built = []
        monkeypatch.setattr(analysis, "build_plan", lambda *a: built.append(1) or build_plan(*a))
        enumerated = _count_enumerations(monkeypatch)
        grid = [round(0.75 + 0.05 * k, 10) for k in range(11)]
        table = two_way_sweep(toy_model, ((1, 0), (2, 1)), grid, grid)
        # one plan per plan scheme, position and factor, not two per row
        assert len(built) == 4 * 2 * len(grid)
        standard = np.array(table.scheme) == "standard"
        assert len(enumerated) <= standard.sum()
        assert table.preserving[~standard].all()

    def test_standard_sweep2_decides_every_row_without_model_holds(self, monkeypatch, capsys):
        calls = _count_enumerations(monkeypatch)
        path = str(fixture_path("synthetic4"))
        assert main(["sweep2", path, "--pos", "Y2,Y1", "--pos2", "Y3,Y2", "--schemes", "standard"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 51 * 51
        assert {row.rsplit(",", 1)[1] for row in rows} == {"true", "false"}
        assert calls == []

    def test_confirming_minors_come_from_iter_minors(self, monkeypatch):
        # the two standard rows that break synthetic4's statement read one
        # confirming minor each, and read it through cimodel.iter_minors
        read = []

        def counted(*args):
            for minor in iter_minors(*args):
                read.append(minor)
                yield minor

        monkeypatch.setattr(cimodel, "iter_minors", counted)
        table = one_way_sweep(load_model(fixture_path("synthetic4")), (1, 0), [0.9, 1.0, 1.1])
        preserving = by_scheme(table, "preserving")
        assert preserving.pop("standard").tolist() == [False, True, False]
        assert all(flags.all() for flags in preserving.values())
        assert len(read) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        grid1=st.lists(FACTORS, min_size=1, max_size=3),
        grid2=st.none() | st.lists(FACTORS, min_size=1, max_size=3),
    )
    def test_stacked_schemes_equal_the_single_scheme_sweeps_interleaved(self, seed, grid1, grid2):
        rng = np.random.default_rng(seed)
        model = _random_model(rng)
        try:
            require_model(model.covariance, model.statements, DEFAULT_TOL, None)
        except ModelPreconditionError:
            assume(False)
        keys = [(i, j) for i in range(model.n) for j in range(model.n) if i >= j]
        positions = tuple(keys[k] for k in rng.choice(len(keys), size=1 if grid2 is None else 2, replace=False))
        schemes = [_random_scheme(rng, model) for _ in range(int(rng.integers(1, 4)))]
        # one entry repeated verbatim, and two row schemes with different E sets
        first, second = (tuple(int(v) for v in rng.choice(model.n, size=k, replace=False)) for k in (1, 2))
        schemes += [schemes[int(rng.integers(len(schemes)))], Scheme("row", first), Scheme("row", second)]
        schemes = [schemes[k] for k in rng.permutation(len(schemes))]

        def sweep(entries):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if grid2 is None:
                    return one_way_sweep(model, positions[0], grid1, entries)
                return two_way_sweep(model, positions, grid1, grid2, entries)

        whole, width = sweep(schemes), len(schemes)
        for s, entry in enumerate(schemes):
            single = sweep([entry])
            assert whole.scheme[s::width] == single.scheme and whole.error[s::width] == single.error
            for column in ("factors", "kl", "frobenius", "admissible", "preserving"):
                assert getattr(whole, column)[s::width].tobytes() == getattr(single, column).tobytes(), column

    def test_one_pass_certifies_once_and_decides_once_per_statement_and_block(self, monkeypatch):
        rng = np.random.default_rng(4)
        dag = random_dag(rng, 12, edge_prob=0.3, beta_max=1.0)
        mean, cov = dag_to_gaussian(dag)
        model = Model(tuple(f"v{k}" for k in range(12)), mean, cov, dag_ci_statements(dag), dag)
        base, decisions, measured, inside = [], [], [], []
        certify, decide, measure = cimodel._certify, analysis.decide_pairs, analysis.measure
        require, table = analysis.require_model, cimodel.statement_table(model.statements, model.n)

        def counting_require(*args):
            inside.append(1)
            try:
                return require(*args)
            finally:
                inside.pop()

        def counting_certify(blocks, width):
            if inside:  # step 2 on the base, by |C|
                base.append(blocks.shape[0] - width[0])
            return certify(blocks, width)

        def counting_decide(covs, table, at, which, tol):
            decisions.append(sorted({int(g) for g in table.group[which]}))
            return decide(covs, table, at, which, tol)

        monkeypatch.setattr(cimodel, "_certify", counting_certify)
        monkeypatch.setattr(analysis, "require_model", counting_require)
        monkeypatch.setattr(analysis, "decide_pairs", counting_decide)
        monkeypatch.setattr(analysis, "measure", lambda *a: measured.append(1) or measure(*a))
        # an edge's entry, so that no factor below leaves a target equal to the base
        i, j, _ = dag.edges[0]
        table_rows = one_way_sweep(model, (j, i), [0.8, 1.2, 1.5])
        # 5 schemes x 3 factors = 15 rows of 12 x 12 matrices fit one block
        assert len(table_rows) == 15 <= analysis.BLOCK_ENTRIES // 12**2
        # the base's step 2 runs once per group of statements that share a
        # non-empty C, on all of them at once
        sizes = sorted({len(stmt.given) for stmt in model.statements if stmt.given})
        assert sorted(base) == sizes and len(table.groups) >= 3
        # the one block decides each group at most once, one group a call
        assert decisions and all(len(groups) == 1 for groups in decisions)
        assert len({groups[0] for groups in decisions}) == len(decisions)
        assert len(measured) == 1

    def test_shares_each_variation_across_schemes_and_builds_each_axis_plan_once(self, toy_model, monkeypatch):
        made, passed = [], []

        def variation(*args):
            made.append(Variation(*args))
            return made[-1]

        def plan(var, *args):
            passed.append(var)
            return build_plan(var, *args)

        monkeypatch.setattr(analysis, "Variation", variation)
        monkeypatch.setattr(analysis, "build_plan", plan)
        grids = [[-0.5, 1e-300, 0.9, 1e300], [1.1, -0.5, 1e300]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            two_way_sweep(toy_model, ((1, 0), (2, 1)), *grids)
        # one Variation per position and factor, each passed to every plan scheme's build_plan
        assert len(made) == 7 and len(passed) == 4 * 7
        assert sorted(map(id, passed)) == sorted(map(id, made * 4))

    def test_library_sweeps_at_extreme_factors_raise_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cachexia = load_model(fixture_path("cachexia_control"))
            two_way_sweep(cachexia, ((1, 0), (2, 1)), [1e300], [1e300], ["standard", "total"])
            one_way_sweep(load_model(fixture_path("synthetic4")), (1, 0), [1e200, 1e300])
