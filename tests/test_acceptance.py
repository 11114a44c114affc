"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; a failing criterion shows up as a failing test.
"""

import time

import numpy as np
import pytest

from conftest import SIGMA4, STMT5_A, STMT5_B, by_scheme, kl_dense, model5, random_dag
from gsens import (
    CIStatement,
    GaussianDag,
    InadmissibleError,
    Scheme,
    Variation,
    build_plan,
    ci_holds,
    compose,
    condition,
    dag_ci_statements,
    dag_to_gaussian,
    iter_minors,
    kl,
    load_model,
    model_holds,
    one_way_sweep,
    statement_block,
    two_way_sweep,
    verify_preserving,
)
from gsens.conditioning import Evidence
from gsens.fixtures import fixture_path
from gsens.matcore import is_psd

GRID = tuple(round(0.75 + k * 0.01, 10) for k in range(51))
POSITIONS_71 = ((1, 0), (1, 1), (2, 0), (2, 1))  # sigma 21, 22, 31, 32


def _report(number: int, text: str):
    print(f"ACCEPTANCE {number:02d}: PASS  {text}")


def _random_spd(rng, n):
    a = rng.uniform(-1.5, 1.5, size=(n, n))
    m = a @ a.T + n * np.eye(n)
    return (m + m.T) / 2


def test_criterion_01_dag_reconstruction(dag4):
    best = min(
        (lambda t0: (dag_to_gaussian(dag4), time.perf_counter() - t0))(time.perf_counter())[1]
        for _ in range(20)
    )
    mean, cov = dag_to_gaussian(dag4)
    assert np.array_equal(cov, SIGMA4), "covariance must match the reference matrix exactly"
    assert np.array_equal(mean, np.zeros(4))
    assert best < 1e-3, f"reconstruction took {best * 1e3:.3f} ms"
    _report(1, f"exact covariance reconstruction in {best * 1e6:.0f} us")


def test_criterion_02_ci_verification(sigma4, stmt4):
    res = ci_holds(sigma4, stmt4)
    assert res.holds
    minors = list(iter_minors(statement_block(sigma4, stmt4), stmt4.minor_order))
    assert len(minors) == 1 and minors[0].value == 0.0, "minor 2*5 - 5*2 must be exactly zero"
    broken = sigma4.copy()
    broken[1, 0] = broken[0, 1] = 2.5
    res2 = ci_holds(broken, stmt4)
    assert not res2.holds
    assert res2.witness.value == 2.5, "witness must be exactly 2.5*5 - 5*2"
    _report(2, "vanishing minor exactly 0; broken entry gives witness 2.5")


def test_criterion_03_preservation_property_suite():
    rng = np.random.default_rng(7)
    kinds = ("total", "partial", "row", "column")
    t0 = time.perf_counter()
    done = 0
    while done < 200:
        dag = random_dag(rng)
        statements = [s for s in dag_ci_statements(dag) if s.given]
        if not statements:
            continue
        _, cov = dag_to_gaussian(dag)
        stmt = statements[int(rng.integers(len(statements)))]
        i = int(rng.choice(stmt.block_rows))
        j = int(rng.choice(stmt.block_cols))
        if rng.random() < 0.5:
            i, j = j, i
        delta = float(rng.uniform(0.25, 2.0))
        if abs(delta - 1.0) < 0.02:
            continue
        kind = kinds[done % 4]
        plan = build_plan(Variation(dag.n, ((i, j, delta),)), Scheme(kind), statements)
        check = verify_preserving(plan, cov, statements)
        assert check.holds, (
            f"instance {done}: {kind} scheme broke the model "
            f"(n={dag.n}, position=({i + 1},{j + 1}), delta={delta:.4f})"
        )
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"200 instances took {elapsed:.2f} s"
    _report(3, f"200 randomized scheme instances all preserving in {elapsed:.2f} s")


def test_criterion_04_negative_control():
    rng = np.random.default_rng(11)
    cov = model5(rng)
    statements = [STMT5_A, STMT5_B]
    assert model_holds(cov, statements).holds
    v = Variation(5, ((3, 2, 1.5),))
    naive = compose(
        build_plan(v, Scheme("column", statement_index=0), [STMT5_A, STMT5_B]),
        build_plan(v, Scheme("column", statement_index=1), [STMT5_A, STMT5_B]),
    )
    assert not verify_preserving(naive, cov, statements).holds
    corrected = build_plan(v, Scheme("column", subset=(1, 2)), statements)
    assert verify_preserving(corrected, cov, statements).holds
    _report(4, "naive per-statement columns break the model; widened column preserves")


def test_criterion_05_kl_consistency():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 100:
        dag = random_dag(rng)
        statements = [s for s in dag_ci_statements(dag) if s.given]
        if not statements:
            continue
        n = dag.n
        _, cov = dag_to_gaussian(dag)
        stmt = statements[int(rng.integers(len(statements)))]
        i = int(rng.choice(stmt.block_rows))
        j = int(rng.choice(stmt.block_cols))
        delta = float(rng.uniform(0.25, 2.0))
        if abs(delta - 1.0) < 0.1:
            continue
        kind = ("total", "partial", "row", "column")[checked % 4]
        plan = build_plan(Variation(n, ((i, j, delta),)), Scheme(kind), statements)
        target = plan.apply(cov)
        if not is_psd(target):
            continue
        assert kl(cov, (plan.product - 1.0) * cov) == pytest.approx(
            kl_dense(cov, target), rel=1e-10, abs=1e-13
        )
        shift = rng.uniform(-0.15, 0.15, size=(n, n))
        shift = (shift + shift.T) / 2 * float(np.abs(cov).max())
        if not is_psd(cov + shift):
            continue
        try:
            got = kl(cov, shift)
        except InadmissibleError:
            continue
        assert got == pytest.approx(kl_dense(cov, cov + shift), rel=1e-10, abs=1e-13)
        checked += 1
    for n in range(2, 7):
        cov = _random_spd(np.random.default_rng(100 + n), n)
        for delta in (0.5, 0.8, 1.25, 2.0):
            closed = 0.5 * n * (delta - 1.0 - np.log(delta))
            assert kl(cov, (delta - 1.0) * cov) == pytest.approx(closed, rel=1e-12)
            assert kl_dense(cov, delta * cov) == pytest.approx(closed, rel=1e-10)
    _report(5, "kl agrees with the trace/log-det form on plans, shifts and totals")


def test_criterion_06_zero_point():
    for name, position in (("synthetic4", "Y2,Y1"), ("cachexia", "GM,B")):
        model = load_model(fixture_path(name))
        table = one_way_sweep(model, model.resolve_position(position), [1.0])
        assert len(table) == 5
        for scheme, kl_value, frob, admissible in zip(table.scheme, table.kl, table.frobenius, table.admissible):
            assert kl_value == 0.0, f"{name}/{scheme}: kl not exactly zero"
            assert frob == 0.0, f"{name}/{scheme}: frobenius not exactly zero"
            assert admissible
    _report(6, "unit factor gives exact zeros for every scheme on both fixtures")


def test_criterion_07_frobenius_chain():
    model = load_model(fixture_path("synthetic4"))
    for position in POSITIONS_71:
        f = by_scheme(one_way_sweep(model, position, GRID), "frobenius")
        slack = 1e-12 * np.maximum(1.0, f["total"])
        assert (f["total"] >= f["partial"] - slack).all()
        assert (f["partial"] >= f["row"] - slack).all()
        assert (f["partial"] >= f["column"] - slack).all()
        assert (f["row"] >= f["standard"] - slack).all()
        assert (f["column"] >= f["standard"] - slack).all()
    _report(7, "Frobenius chain holds at all 51 grid points for all four positions")


@pytest.mark.filterwarnings("ignore:position .* lies outside")
def test_criterion_08_composition(stmt4, sigma4):
    rng = np.random.default_rng(17)
    for _ in range(50):
        dag = random_dag(rng)
        statements = list(dag_ci_statements(dag))
        _, cov = dag_to_gaussian(dag)
        n = dag.n
        picks = rng.integers(0, n, size=4)
        d1, d2 = rng.uniform(0.25, 2.0, size=2)
        p1 = build_plan(
            Variation(n, ((int(picks[0]), int(picks[1]), float(d1)),)),
            Scheme("partial"),
            statements,
        )
        p2 = build_plan(
            Variation(n, ((int(picks[2]), int(picks[3]), float(d2)),)),
            Scheme("total"),
            statements,
        )
        combined = compose(p1, p2)
        np.testing.assert_array_equal(combined.product, compose(p2, p1).product)
        sequential = p1.apply(p2.apply(cov))
        np.testing.assert_allclose(combined.apply(cov), sequential, rtol=1e-12)
    # the two-factor worked example: bottom-row fill times two-column fill
    d1, d2 = 1.5, 0.8
    q1 = build_plan(Variation(5, ((3, 2, d1),)), Scheme("row"), [STMT5_A, STMT5_B])
    q2 = build_plan(Variation(5, ((2, 1, d2),)), Scheme("column"), [STMT5_A, STMT5_B])
    expected = np.ones((5, 5))
    expected[3, 0] = expected[0, 3] = d1
    expected[3, 4] = expected[4, 3] = d1
    expected[1, 1] = expected[1, 2] = expected[2, 1] = expected[2, 2] = d2
    expected[3, 1] = expected[1, 3] = d1 * d2
    expected[3, 2] = expected[2, 3] = d1 * d2
    np.testing.assert_array_equal(compose(q1, q2).product, expected)
    _report(8, "composition commutes, factors through the product, worked example exact")


def test_criterion_09_total_scheme_admissibility():
    rng = np.random.default_rng(19)
    for k in range(100):
        n = int(rng.integers(1, 7))
        if k % 5 == 0 and n > 1:
            a = rng.uniform(-1.5, 1.5, size=(n, n - 1))  # rank-deficient PSD
            cov = a @ a.T
            cov = (cov + cov.T) / 2
        else:
            cov = _random_spd(rng, n)
        assert is_psd(cov)
        delta = float(rng.uniform(0.0, 3.0)) or 1e-6
        assert is_psd(delta * cov), f"total rescale by {delta} left the cone"
    _report(9, "100 random PSD matrices stay PSD under total rescaling")


def test_criterion_10_cachexia_fixtures():
    ill = load_model(fixture_path("cachexia"))
    control = load_model(fixture_path("cachexia_control"))
    assert ill.n == control.n == 6

    # the control zeros are vanishing order-1 minors of marginal statements
    assert len(control.statements) == 3
    expected_pairs = {("B", "GC"), ("V", "GC"), ("A", "GC")}
    seen = set()
    for stmt in control.statements:
        res = ci_holds(control.covariance, stmt)
        assert res.holds
        (minor,) = iter_minors(statement_block(control.covariance, stmt), 1)
        assert minor.value == 0.0
        seen.add((control.names[stmt.left[0]], control.names[stmt.right[0]]))
    assert seen == expected_pairs

    for position in ("GM,B", "GM,V", "GC,B", "GC,V"):
        table = one_way_sweep(ill, ill.resolve_position(position), GRID)
        assert len(table) == len(GRID) * 5
        bad = int((~table.admissible).sum())
        assert not bad, f"{position}: {bad} inadmissible rows"
        assert table.error == (None,) * len(table)
    _report(10, "cachexia fixtures load; zeros check out; all sweep rows admissible")


def test_criterion_11_figure_shape():
    model = load_model(fixture_path("synthetic4"))

    # at the +25% edge only the total covariation keeps the covariance
    # positive definite, and its KL is the closed form n/2 (d - 1 - ln d)
    cov = model.covariance
    for position in POSITIONS_71:
        v = Variation(4, ((position[0], position[1], 1.25),))
        for kind in ("partial", "row", "column"):
            plan = build_plan(v, Scheme(kind), model.statements)
            with pytest.raises(InadmissibleError):
                kl(cov, (plan.product - 1.0) * cov)
        plan = build_plan(v, Scheme("total"), model.statements)
        closed = 0.5 * 4 * (0.25 - np.log(1.25))
        assert kl(cov, (plan.product - 1.0) * cov) == pytest.approx(closed, rel=1e-12)

    # total KL is the smallest throughout the admissible bands of the grid
    for position in POSITIONS_71:
        table = one_way_sweep(model, position, GRID)
        kl_values, admissible = by_scheme(table, "kl"), by_scheme(table, "admissible")
        away = np.array(GRID) != 1.0
        for kind in ("partial", "row", "column"):
            both = away & admissible[kind]
            assert (kl_values["total"][both] < kl_values[kind][both]).all()

    table = two_way_sweep(model, ((1, 1), (2, 1)), GRID, GRID, schemes=["standard", "partial"])
    flags = by_scheme(table, "admissible")
    assert (flags["standard"] != flags["partial"]).any(), "admissible cells must differ"
    _report(11, "only total admissible at 1.25, smallest KL wherever defined; two-way cells differ")


def test_criterion_12_conditioning():
    mean_c, cov_c = condition(np.zeros(2), [[1.0, 2.0], [2.0, 5.0]], Evidence((1,), [1.0]))
    assert abs(mean_c[0] - 0.4) < 1e-12
    assert abs(cov_c[0, 0] - 0.2) < 1e-12
    _report(12, "hand conditional (0.4, 0.2) exact")
