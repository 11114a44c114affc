import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIGMA4, kl_dense, random_dag, random_dag_with_statement
from gsens import (
    GsensError,
    InadmissibleError,
    Scheme,
    SingularMatrixError,
    Variation,
    build_plan,
    compose,
    dag_ci_statements,
    dag_to_gaussian,
    frobenius,
    kl,
    load_model,
    one_way_sweep,
    scheme_ordering,
)
from gsens import divergence
from gsens.divergence import additive_shift, evaluate, frobenius_mp, kl_additive, kl_mp
from gsens.fixtures import fixture_path
from gsens.matcore import is_psd

# 0.5 * 4 * (1.25 - ln 1.25 - 1), frozen from direct evaluation
KL_TOTAL_125_N4 = 0.05371289737158048
# 0.5 * 4 * (0.8 - ln 0.8 - 1)
KL_TOTAL_08_N4 = 0.04628710262841952

# fixture positions of the accuracy checks, and |delta - 1| from 1e-12 to 0.2
ORACLE_POSITIONS = (
    ("synthetic4", "Y2,Y1"),
    ("synthetic4", "Y3,Y2"),
    ("cachexia", "GM,V"),
    ("cachexia_control", "V,B"),
)
ORACLE_STEPS = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.05, 0.2)


def _random_spd(rng, n):
    a = rng.uniform(-1.5, 1.5, size=(n, n))
    m = a @ a.T + n * np.eye(n)
    return (m + m.T) / 2


def _plan_shift(cov, plan):
    return (plan.product - 1.0) * cov


class TestKl:
    """kl on every kind of change: input checks, exactness against a
    50-digit oracle, the sign and zero properties, a rescale, asymmetry and
    the error cases."""

    def test_input_checks(self, sigma4):
        with pytest.raises(ValueError, match="not symmetric"):
            kl(np.triu(sigma4), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="not symmetric"):
            kl(sigma4, np.triu(np.ones((4, 4))))
        with pytest.raises(ValueError, match="dimension mismatch"):
            kl(sigma4, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="square"):
            kl(np.ones((2, 3)), np.zeros((2, 3)))

    def test_indefinite_base_is_inadmissible(self):
        with pytest.raises(InadmissibleError, match="base covariance"):
            kl(np.diag([1.0, -1.0]), np.zeros((2, 2)))

    def test_matches_exact_change_at_fixture_points(self):
        # the reference is the KL of the exact change T = P o cov (T = cov +
        # D for the standard row), with trace and determinants at 50 digits
        mp = pytest.importorskip("mpmath")
        deltas = [1.0 + s for s in ORACLE_STEPS] + [1.0 - s for s in ORACLE_STEPS]
        checked = 0
        for name, position in ORACLE_POSITIONS:
            model = load_model(fixture_path(name))
            cov, n = model.covariance, model.n
            i, j = model.resolve_position(position)
            with mp.workdps(50):
                base = mp.matrix(cov.tolist())
                prec, logdet = mp.inverse(base), mp.log(mp.det(base))
                table = one_way_sweep(model, (i, j), deltas)
                rows = zip(table.factors.tolist(), table.scheme, table.kl.tolist(), table.admissible)
                for (delta,), scheme, got, admissible in rows:
                    if not admissible:
                        continue
                    v = Variation(n, ((i, j, delta),))
                    if scheme == "standard":
                        product = v.matrix
                    else:
                        product = build_plan(v, Scheme(scheme), model.statements).product
                    target = mp.matrix(n, n)
                    for a in range(n):
                        for b in range(n):
                            target[a, b] = mp.mpf(product[a, b]) * cov[a, b]
                    trace = mp.fsum(prec[a, b] * target[b, a] for a in range(n) for b in range(n))
                    want = (trace - n + logdet - mp.log(mp.det(target))) / 2
                    assert abs(got - want) <= 1e-12 * want, (name, position, scheme, delta)
                    checked += 1
        assert checked > 200

    @pytest.mark.filterwarnings("ignore:position .* lies outside")
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["standard", "total", "partial", "row", "column"]),
        deltas=st.lists(st.just(1.0) | st.floats(0.5, 2.0), min_size=1, max_size=2),
    )
    def test_nonnegative_and_zero_exactly_without_change(self, seed, kind, deltas):
        rng = np.random.default_rng(seed)
        cov, statements = random_dag_with_statement(rng)
        n = cov.shape[0]
        keys = [(i, j) for i in range(n) for j in range(i + 1)]
        picks = rng.choice(len(keys), size=min(len(deltas), len(keys)), replace=False)
        positions = [keys[k] for k in picks]
        deltas = deltas[: len(positions)]
        if kind == "standard":
            change = shift = additive_shift(cov, positions, deltas)
        else:
            factors = tuple((i, j, d) for (i, j), d in zip(positions, deltas))
            change = build_plan(Variation(n, factors), Scheme(kind), statements)
            shift = _plan_shift(cov, change)
        _, report = evaluate(kind, cov, change)
        if all(d == 1.0 for d in deltas):
            assert report.admissible and report.kl == 0.0
        if report.admissible:
            assert report.kl >= 0.0
            assert (report.kl == 0.0) == (not shift.any())

    def test_identical_inputs_are_exactly_zero(self, sigma4):
        assert kl(sigma4, np.zeros((4, 4))) == 0.0

    def test_rescaled_covariance_matches_closed_form(self, sigma4):
        assert kl(sigma4, 0.25 * sigma4) == pytest.approx(KL_TOTAL_125_N4, rel=1e-12)

    def test_asymmetry_on_a_fixture(self):
        cov1 = np.diag([1.0, 2.0])
        cov2 = np.diag([2.0, 5.0])
        assert kl(cov1, cov2 - cov1) != pytest.approx(kl(cov2, cov1 - cov2))

    def test_singular_base_raises(self):
        with pytest.raises(SingularMatrixError):
            kl(np.ones((2, 2)), np.eye(2) - np.ones((2, 2)))

    def test_nonpositive_determinant_raises(self):
        with pytest.raises(InadmissibleError):
            kl(np.eye(2), np.diag([0.0, -2.0]))


class TestKlStack:
    """kl_stack row by row against kl, on a stack that mixes every kind of
    change: admissible, indefinite, infinite, NaN and finite but too large
    to whiten."""

    def _stack(self, sigma4):
        nan_pair = np.zeros((4, 4))
        nan_pair[0, 2] = nan_pair[2, 0] = np.nan
        inf_pair = np.zeros((4, 4))
        inf_pair[1, 3] = inf_pair[3, 1] = np.inf
        # finite, and Sigma + D is positive definite, but L^-1 D L^-T overflows
        overflow = 1e308 * np.eye(4)
        return np.stack([0.25 * sigma4, -2.0 * sigma4, inf_pair, nan_pair, overflow])

    def test_every_row_is_kl_or_its_inadmissible_error(self, sigma4):
        shifts = self._stack(sigma4)
        with np.errstate(all="ignore"):
            values, admissible = divergence.kl_stack(divergence.whitener(sigma4), shifts)
            assert admissible.tolist() == [True, False, False, False, False]
            assert values[0] == kl(sigma4, shifts[0])
            assert np.isnan(values[1:]).all()
            for shift in shifts[1:]:
                with pytest.raises(InadmissibleError):
                    kl(sigma4, shift)

    def test_no_whitener_makes_every_row_inadmissible(self, sigma4):
        values, admissible = divergence.kl_stack(None, self._stack(sigma4))
        assert not admissible.any() and np.isnan(values).all()


class TestKlAdditive:
    """kl_additive, the standard method's KL, against the dense oracle."""

    def test_zero_shifts_give_exact_zero(self, sigma4):
        shift = additive_shift(sigma4, ((1, 0),), (1.0,))
        assert not shift.any()
        assert kl_additive(sigma4, shift) == 0.0

    def test_agrees_with_general_form(self, sigma4):
        # matched additive change for a 5% multiplicative variation of the
        # (2,1) entry; larger factors push this matrix past det = 0
        shift = additive_shift(sigma4, ((1, 0),), (1.05,))
        assert kl_additive(sigma4, shift) == pytest.approx(kl_dense(sigma4, sigma4 + shift), rel=1e-10)

    def test_agrees_with_general_form_in_error_too(self, sigma4):
        shift = additive_shift(sigma4, ((1, 0),), (1.25,))
        with pytest.raises(InadmissibleError):
            kl_additive(sigma4, shift)
        assert np.linalg.slogdet(sigma4 + shift)[0] <= 0

    def test_oracle_agreement_on_random_admissible_instances(self, rng):
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            cov = _random_spd(rng, n)
            shift = rng.uniform(-0.2, 0.2, size=(n, n))
            shift = (shift + shift.T) / 2
            if not is_psd(cov + shift):
                continue
            got = kl_additive(cov, shift)
            assert got == pytest.approx(kl_dense(cov, cov + shift), rel=1e-10, abs=1e-12)
            checked += 1
        assert checked > 20

    def test_inadmissible_shift_raises(self):
        with pytest.raises(InadmissibleError):
            kl_additive(np.eye(2), np.diag([-2.0, 0.0]))


class TestKlMp:
    """kl_mp, the model-preserving schemes' KL, with shift (P - 1) o cov."""

    def test_all_ones_plan_is_exactly_zero(self, sigma4, stmt4):
        plan = build_plan(Variation(4, ((0, 0, 1.0),)), Scheme("none"), [stmt4])
        assert kl_mp(sigma4, plan) == 0.0

    def test_total_plan_matches_closed_form(self, sigma4, stmt4):
        # the total plan's shift is 0.25 * cov exactly, whose KL
        # test_rescaled_covariance_matches_closed_form pins
        plan = build_plan(Variation(4, ((1, 0, 1.25),)), Scheme("total"), [stmt4])
        np.testing.assert_array_equal(_plan_shift(sigma4, plan), 0.25 * sigma4)

    def test_partial_plan_agrees_with_general_form(self, sigma4, stmt4):
        plan = build_plan(Variation(4, ((1, 0, 1.02),)), Scheme("partial"), [stmt4])
        want = kl_dense(sigma4, plan.apply(sigma4))
        assert kl_mp(sigma4, plan) == pytest.approx(want, rel=1e-10)

    def test_negative_determinant_raises(self, sigma4, stmt4):
        plan = build_plan(Variation(4, ((1, 0, 1.25),)), Scheme("row"), [stmt4])
        with pytest.raises(InadmissibleError):
            kl_mp(sigma4, plan)

    def test_composed_totals_match_product_closed_form(self, sigma4, stmt4):
        p1 = build_plan(Variation(4, ((1, 0, 1.2),)), Scheme("total"), [stmt4])
        p2 = build_plan(Variation(4, ((2, 1, 1.1),)), Scheme("total"), [stmt4])
        combined = compose(p1, p2)
        delta = 1.2 * 1.1
        want = 0.5 * 4 * (delta - 1.0 - np.log(delta))
        assert kl_mp(sigma4, combined) == pytest.approx(want, rel=1e-12)


class TestKlTotalClosed:
    """A total covariation by delta has KL n/2 (delta - 1 - ln delta),
    whatever the covariance."""

    def test_frozen_values(self, sigma4):
        for delta, frozen in ((1.25, KL_TOTAL_125_N4), (0.8, KL_TOTAL_08_N4)):
            assert 2 * (delta - 1.0 - math.log(delta)) == pytest.approx(frozen, rel=1e-12)
        assert kl(sigma4, (0.8 - 1.0) * sigma4) == pytest.approx(KL_TOTAL_08_N4, rel=1e-12)

    def test_nonpositive_factor_rejected(self, sigma4):
        for delta in (0.0, -1.0):
            with pytest.raises(InadmissibleError):
                kl(sigma4, (delta - 1.0) * sigma4)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        delta=st.floats(1e-6, 10.0, allow_nan=False, allow_infinity=False),
    )
    def test_nonnegative_with_zero_only_at_one(self, n, delta):
        cov = np.eye(n) + 0.5 * np.ones((n, n))
        value = kl(cov, (delta - 1.0) * cov)
        assert value >= 0.0
        assert (value == 0.0) == (delta == 1.0)

    def test_agrees_with_general_form_across_dimensions(self, rng):
        # the sweep path: a total plan on a random DAG of each size, through evaluate
        for n in range(2, 7):
            _, cov = dag_to_gaussian(random_dag(rng, n))
            for delta in (0.5, 0.8, 1.25, 2.0):
                plan = build_plan(Variation(n, ((n - 1, 0, delta),)), Scheme("total"), [])
                closed = 0.5 * n * (delta - 1.0 - math.log(delta))
                assert evaluate("total", cov, plan)[1].kl == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("name", ["synthetic4", "cachexia", "cachexia_control"])
    def test_total_closed_form_on_fixtures(self, name):
        # n/2 (x - ln(1 + x)) with x = delta - 1, at 50 digits
        mp = pytest.importorskip("mpmath")
        model = load_model(fixture_path(name))
        for delta in np.concatenate([np.logspace(-3, 3, 61), 1.0 + np.array(ORACLE_STEPS)]):
            v = Variation(model.n, ((1, 0, float(delta)),))
            plan = build_plan(v, Scheme("total"), model.statements)
            got = evaluate("total", model.covariance, plan)[1].kl
            if delta == 1.0:
                assert got == 0.0
                continue
            with mp.workdps(50):
                x = mp.mpf(float(delta)) - 1
                want = model.n * (x - mp.log1p(x)) / 2
            assert abs(got - want) <= 1e-12 * want, delta


class TestFrobenius:
    def test_identical_is_zero(self, sigma4):
        assert frobenius(sigma4, sigma4) == 0.0

    def test_total_rescale_by_hand(self, sigma4):
        # 0.25^2 * (sum of squared entries) = 0.0625 * 5495
        assert frobenius(sigma4, 1.25 * sigma4) == pytest.approx(343.4375)

    def test_single_symmetric_additive_change(self):
        cov = np.eye(3)
        shifted = cov.copy()
        shifted[0, 1] = shifted[1, 0] = 0.7
        assert frobenius(cov, shifted) == pytest.approx(2 * 0.7**2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frobenius(np.eye(2), np.eye(3))


class TestFrobeniusMp:
    """frobenius_mp is frobenius(cov, P o cov), bitwise what evaluate reports."""

    def test_bitwise_equal_to_direct_form(self, rng, stmt4):
        for _ in range(20):
            delta = float(rng.uniform(0.25, 2.0))
            kind = ("total", "partial", "row", "column")[int(rng.integers(4))]
            plan = build_plan(Variation(4, ((1, 0, delta),)), Scheme(kind), [stmt4])
            assert frobenius_mp(SIGMA4, plan) == frobenius(SIGMA4, plan.apply(SIGMA4))

    def test_composed_plan_both_ways(self, stmt4):
        p1 = build_plan(Variation(5, ((3, 2, 1.5),)), Scheme("row"), [])
        p2 = build_plan(Variation(5, ((2, 1, 0.8),)), Scheme("none"), [])
        combined = compose(p1, p2)
        cov = np.eye(5) + 0.1 * np.ones((5, 5))
        assert frobenius_mp(cov, combined) == evaluate("row", cov, combined)[1].frobenius


class TestSchemeOrdering:
    def test_chain_on_toy_fixture(self, sigma4, stmt4):
        reports = scheme_ordering(sigma4, (1, 0), 1.25, stmt4)
        by_name = {r.scheme: r for r in reports}
        f = {k: r.frobenius for k, r in by_name.items()}
        assert f["total"] >= f["partial"] >= f["row"]
        assert f["partial"] >= f["column"]
        assert f["row"] >= f["standard"] and f["column"] >= f["standard"]
        assert [r.scheme for r in reports] == ["total", "partial", "row", "column", "standard"]

    def test_unit_factor_degenerates_to_zero(self, sigma4, stmt4):
        reports = scheme_ordering(sigma4, (1, 0), 1.0, stmt4)
        assert all(r.frobenius == 0.0 for r in reports)
        assert all(r.kl == 0.0 for r in reports)

    def test_chain_on_random_instances(self, rng):
        done = 0
        while done < 15:
            dag = random_dag(rng)
            statements = [s for s in dag_ci_statements(dag) if s.given]
            if not statements:
                continue
            _, cov = dag_to_gaussian(dag)
            stmt = statements[int(rng.integers(len(statements)))]
            i = int(rng.choice(stmt.block_rows))
            j = int(rng.choice(stmt.block_cols))
            delta = float(rng.uniform(0.5, 1.5))
            scheme_ordering(cov, (i, j), delta, stmt)  # asserts internally
            done += 1

    def test_kl_reported_only_when_admissible(self, sigma4, stmt4):
        reports = scheme_ordering(sigma4, (1, 0), 1.25, stmt4)
        for r in reports:
            assert (r.kl is not None) == r.admissible

    def test_ordering_violation_is_a_gsens_error(self, monkeypatch, sigma4, stmt4):
        # the check must survive python -O and reach the CLI as exit 1
        real = divergence.frobenius

        def broken(cov, target):
            return 0.0 if np.array_equal(target, 1.05 * cov) else real(cov, target)

        monkeypatch.setattr(divergence, "frobenius", broken)
        with pytest.raises(GsensError, match="total < partial"):
            scheme_ordering(sigma4, (1, 0), 1.05, stmt4)
