import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SIGMA4, random_dag
from gsens import (
    CIStatement,
    FactorError,
    GaussianDag,
    GsensError,
    ModelFormatError,
    ModelPreconditionError,
    Scheme,
    TolerancePolicy,
    Variation,
    admissible_region,
    analysis,
    build_plan,
    dag_ci_statements,
    dag_to_gaussian,
    emit,
    load_model,
    load_sweep_config,
    model_holds,
    one_way_sweep,
    two_way_sweep,
)
from gsens.analysis import Model, SweepRecord, resolve_scheme
from gsens import cimodel
from gsens.cli import main
from gsens.cimodel import require_model
from gsens.divergence import additive_shift, evaluate
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
        records = one_way_sweep(toy_model, (1, 0), [1.0])
        assert len(records) == 5
        for r in records:
            assert r.kl == 0.0 and r.frobenius == 0.0
            assert r.admissible and r.preserving

    def test_standard_frobenius_matches_hand_formula(self, toy_model):
        records = one_way_sweep(toy_model, (1, 0), [0.9, 1.1], schemes=["standard"])
        for r in records:
            expected = 2 * ((r.delta1 - 1.0) * SIGMA4[1, 0]) ** 2
            assert r.frobenius == pytest.approx(expected, rel=1e-12)

    def test_total_kl_smallest_at_every_common_point(self, toy_model):
        grid = [round(0.75 + k * 0.01, 10) for k in range(51)]
        records = one_way_sweep(toy_model, (1, 0), grid)
        by_delta = {}
        for r in records:
            by_delta.setdefault(r.delta1, {})[r.scheme] = r
        for delta, row in by_delta.items():
            if delta == 1.0:
                continue
            total = row["total"]
            assert total.admissible
            for scheme in ("partial", "row", "column"):
                if row[scheme].admissible:
                    assert total.kl < row[scheme].kl

    def test_preserving_flags(self, toy_model):
        records = one_way_sweep(toy_model, (1, 0), [1.05])
        flags = {r.scheme: r.preserving for r in records}
        assert flags == {
            "standard": False,
            "total": True,
            "partial": True,
            "row": True,
            "column": True,
        }

    def test_scheme_rows_kl_present_iff_admissible(self, toy_model):
        records = one_way_sweep(toy_model, (1, 0), [0.75, 1.0, 1.25])
        for r in records:
            assert (r.kl is not None) == r.admissible

    @pytest.mark.filterwarnings("ignore:negative factor")
    def test_construction_error_recorded_per_row(self, toy_model):
        records = one_way_sweep(toy_model, (1, 0), [-0.5], schemes=["total", "partial"])
        total_row = next(r for r in records if r.scheme == "total")
        assert total_row.error is not None and not total_row.admissible
        assert total_row.kl is None and total_row.frobenius is None
        partial_row = next(r for r in records if r.scheme == "partial")
        assert partial_row.error is None  # negative factors are legal here

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
        records = one_way_sweep(
            toy_model, (2, 0), [1.05], schemes=[Scheme("row", subset=(2,))]
        )
        assert records[0].preserving


class TestTwoWaySweep:
    def test_unit_cell_is_zero(self, toy_model):
        records = two_way_sweep(toy_model, ((1, 1), (2, 1)), [1.0], [1.0])
        for r in records:
            assert r.kl == 0.0 and r.frobenius == 0.0 and r.admissible

    def test_masks_differ_between_standard_and_partial(self, toy_model):
        grid = [round(0.75 + k * 0.05, 10) for k in range(11)]
        records = two_way_sweep(
            toy_model, ((1, 1), (2, 1)), grid, grid, schemes=["standard", "partial"]
        )
        region = admissible_region(records)
        assert region.two_way
        flags = {
            scheme: [r.admissible for r in records if r.scheme == scheme]
            for scheme in ("standard", "partial")
        }
        assert flags["standard"] != flags["partial"]

    def test_total_cells_all_admissible(self, toy_model):
        grid = [0.5, 1.0, 2.0]
        records = two_way_sweep(toy_model, ((1, 1), (2, 1)), grid, grid, schemes=["total"])
        assert all(r.admissible for r in records)
        assert all(r.preserving for r in records)

    def test_grid_order(self, toy_model):
        records = two_way_sweep(
            toy_model, ((1, 1), (2, 1)), [1.0, 1.1], [0.9, 1.0], schemes=["total"]
        )
        assert [(r.delta1, r.delta2) for r in records] == [
            (1.0, 0.9),
            (1.0, 1.0),
            (1.1, 0.9),
            (1.1, 1.0),
        ]

    def test_same_position_twice_rejected(self, toy_model):
        with pytest.raises(ValueError, match="distinct"):
            two_way_sweep(toy_model, ((1, 0), (0, 1)), [1.0])


class TestAdmissibleRegion:
    def test_total_interval_covers_the_grid(self, toy_model):
        grid = [round(0.75 + k * 0.05, 10) for k in range(11)]
        records = one_way_sweep(toy_model, (1, 0), grid, schemes=["total"])
        region = admissible_region(records)
        assert region.intervals["total"] == (0.75, 1.25)

    def test_interval_strictly_inside_grid(self, toy_model):
        # partial on this matrix loses admissibility around [0.98, 1.13]
        grid = [round(0.75 + k * 0.01, 10) for k in range(51)]
        records = one_way_sweep(toy_model, (1, 0), grid, schemes=["partial"])
        region = admissible_region(records)
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
        records = one_way_sweep(model, (0, 1), [1.5, 2.0], schemes=["partial"])
        region = admissible_region(records)
        assert region.intervals["partial"] is None
        assert region.cell_counts["partial"][0] == 0


class TestEmit:
    def test_csv_columns_and_empty_kl(self, toy_model):
        records = one_way_sweep(toy_model, (1, 0), [0.75], schemes=["partial"])
        text = emit(records, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "delta1,delta2,scheme,kl,frobenius,admissible,preserving"
        fields = lines[1].split(",")
        assert fields[0] == "0.75" and fields[1] == ""
        assert fields[3] == ""  # inadmissible: kl omitted
        assert fields[5] == "false" and fields[6] == "true"

    def test_csv_floats_round_trip(self, toy_model):
        records = one_way_sweep(toy_model, (1, 0), [1.05], schemes=["total"])
        text = emit(records, "csv")
        fields = text.strip().split("\n")[1].split(",")
        assert float(fields[3]) == records[0].kl
        assert float(fields[4]) == records[0].frobenius

    def test_json_round_trip(self, toy_model, tmp_path):
        records = one_way_sweep(toy_model, (1, 0), [0.9, 1.1])
        path = tmp_path / "out.json"
        text = emit(records, "json", path)
        assert path.read_text() == text
        parsed = json.loads(text)
        assert len(parsed) == len(records)
        assert parsed[0]["scheme"] == records[0].scheme
        assert parsed[0]["kl"] == records[0].kl

    def test_unknown_format(self, toy_model):
        with pytest.raises(ValueError):
            emit([], "xml")


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
        records = one_way_sweep(
            model, model.resolve_position(cfg.positions[0]), cfg.deltas1, cfg.schemes
        )
        assert len(records) == 6

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
        records = one_way_sweep(model, position, cfg.deltas1, cfg.schemes)
        assert [r.error for r in records] == [None, None]
        assert all(r.preserving for r in records)


def _per_row(model, positions, grids, schemes, tol):
    """The sweep by its definition: every row builds its own plan (or
    additive change), evaluates it and re-checks the model on the target."""
    require_model(model.covariance, model.statements, tol, model.names)
    cov, records = model.covariance, []
    for deltas in itertools.product(*(sorted(g) for g in grids)):
        d1, d2 = deltas if len(deltas) == 2 else (deltas[0], None)
        for entry in schemes:
            scheme = resolve_scheme(model, entry)
            label = "standard" if scheme is None else scheme.kind
            if scheme is None:
                change = additive_shift(cov, positions, deltas)
            else:
                factors = tuple((i, j, d) for (i, j), d in zip(positions, deltas))
                try:
                    change = build_plan(Variation(model.n, factors), scheme, model.statements)
                except GsensError as e:
                    records.append(SweepRecord(d1, d2, label, None, None, False, False, str(e)))
                    continue
            target, report = evaluate(label, cov, change)
            holds = model_holds(target, model.statements, tol).holds
            records.append(SweepRecord(d1, d2, label, report.kl, report.frobenius, report.admissible, holds))
    return records


def _run(sweep):
    """(records or the exception raised, distinct warnings in order)."""
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


def _same(a: float | None, b: float | None, rel: float = 0.0) -> bool:
    if a is None or b is None:
        return a is b
    return a == b or (a != a and b != b) or abs(a - b) <= rel * max(abs(a), abs(b))


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
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.delta1, g.delta2, g.scheme, g.error) == (w.delta1, w.delta2, w.scheme, w.error)
        assert (g.admissible, g.preserving) == (w.admissible, w.preserving), w
        assert _same(g.frobenius, w.frobenius), w
        assert _same(g.kl, w.kl, 1e-13), w


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


class TestSweepEngine:
    """The mask-batched sweep against the per-row definition."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        grid1=st.lists(FACTORS, min_size=1, max_size=3),
        grid2=st.none() | st.lists(FACTORS, min_size=1, max_size=3),
    )
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
        # goes to model_holds on its row's target unless its confirming minor
        # fails; both models have integer covariances, whose minors vanish
        # exactly
        calls = []
        monkeypatch.setattr(analysis, "model_holds", lambda *a: calls.append(1) or model_holds(*a))
        model = _edge_model(name)
        grid = [-0.5, 0.8, 1.0, 1.3]
        grids = [grid] * len(positions)
        schemes = ["standard", "total", "partial", "row", "column"]
        assert_matches_definition(model, positions, grids, schemes, TolerancePolicy(1e-30))
        assert len(calls) > len(grid) ** len(positions)

    def test_builds_each_axis_plan_once_and_rechecks_only_standard_rows(self, toy_model, monkeypatch):
        counts = {"build": 0, "holds": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(analysis, "build_plan", counting("build", build_plan))
        monkeypatch.setattr(analysis, "model_holds", counting("holds", model_holds))
        grid = [round(0.75 + 0.05 * k, 10) for k in range(11)]
        records = two_way_sweep(toy_model, ((1, 0), (2, 1)), grid, grid)
        # one plan per plan scheme, position and factor, not two per row
        assert counts["build"] == 4 * 2 * len(grid)
        standard = sum(r.scheme == "standard" for r in records)
        assert counts["holds"] <= standard
        assert all(r.preserving for r in records if r.scheme != "standard")

    def test_standard_sweep2_decides_every_row_without_model_holds(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(analysis, "model_holds", lambda *a: calls.append(1) or model_holds(*a))
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
        records = one_way_sweep(load_model(fixture_path("synthetic4")), (1, 0), [0.9, 1.0, 1.1])
        assert [r.preserving for r in records if r.scheme == "standard"] == [False, True, False]
        assert all(r.preserving for r in records if r.scheme != "standard")
        assert len(read) == 2

    def test_library_sweeps_at_extreme_factors_raise_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cachexia = load_model(fixture_path("cachexia_control"))
            two_way_sweep(cachexia, ((1, 0), (2, 1)), [1e300], [1e300], ["standard", "total"])
            one_way_sweep(load_model(fixture_path("synthetic4")), (1, 0), [1e200, 1e300])
