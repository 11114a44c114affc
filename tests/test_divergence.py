import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIGMA4, random_dag
from gsens import (
    GsensError,
    InadmissibleError,
    Scheme,
    SingularMatrixError,
    build_plan,
    compose,
    dag_ci_statements,
    dag_to_gaussian,
    frobenius,
    frobenius_mp,
    is_psd,
    kl_additive,
    kl_gaussian,
    kl_mp,
    kl_total_closed,
    make_variation,
    scheme_ordering,
)
from gsens import divergence

# 0.5 * 4 * (1.25 - ln 1.25 - 1), frozen from direct evaluation
KL_TOTAL_125_N4 = 0.05371289737158048
# 0.5 * 4 * (0.8 - ln 0.8 - 1)
KL_TOTAL_08_N4 = 0.04628710262841952


def _random_spd(rng, n):
    a = rng.uniform(-1.5, 1.5, size=(n, n))
    m = a @ a.T + n * np.eye(n)
    return (m + m.T) / 2


class TestKlGaussian:
    def test_identical_inputs_are_exactly_zero(self, sigma4):
        assert kl_gaussian(np.zeros(4), sigma4, np.zeros(4), sigma4) == 0.0

    def test_rescaled_covariance_matches_closed_form(self, sigma4):
        got = kl_gaussian(None, sigma4, None, 1.25 * sigma4)
        assert got == pytest.approx(KL_TOTAL_125_N4, rel=1e-9)

    def test_one_dimensional_mean_shift(self):
        assert kl_gaussian([0.0], [[1.0]], [1.0], [[1.0]]) == pytest.approx(0.5)

    def test_asymmetry_on_a_fixture(self):
        cov1 = np.diag([1.0, 2.0])
        cov2 = np.diag([2.0, 5.0])
        assert kl_gaussian(None, cov1, None, cov2) != pytest.approx(
            kl_gaussian(None, cov2, None, cov1)
        )

    def test_singular_base_raises(self):
        with pytest.raises(SingularMatrixError):
            kl_gaussian(None, np.ones((2, 2)), None, np.eye(2))

    def test_nonpositive_determinant_raises(self):
        flipped = np.diag([1.0, -1.0])
        with pytest.raises(InadmissibleError):
            kl_gaussian(None, np.eye(2), None, flipped)

    def test_computable_outside_the_cone(self, sigma4, stmt4):
        # the partial plan at 1.25 leaves the PSD cone but keeps det > 0;
        # the trace/log-det expression is still a number
        plan = build_plan(make_variation(4, [(1, 0, 1.25)]), Scheme("partial"), [stmt4])
        target = plan.apply(sigma4)
        assert not is_psd(target)
        value = kl_gaussian(None, sigma4, None, target)
        assert value > 0


class TestKlAdditive:
    def test_zero_shifts_give_exact_zero(self, sigma4):
        assert kl_additive(sigma4, np.zeros((4, 4)), np.zeros(4)) == 0.0

    def test_agrees_with_general_form(self, sigma4):
        # matched additive change for a 5% multiplicative variation of the
        # (2,1) entry; larger factors push this matrix past det = 0
        shift = np.zeros((4, 4))
        shift[1, 0] = shift[0, 1] = (1.05 - 1.0) * sigma4[1, 0]
        expected = kl_gaussian(np.zeros(4), sigma4, np.zeros(4), sigma4 + shift)
        assert kl_additive(sigma4, shift) == pytest.approx(expected, rel=1e-10)

    def test_agrees_with_general_form_in_error_too(self, sigma4):
        shift = np.zeros((4, 4))
        shift[1, 0] = shift[0, 1] = (1.25 - 1.0) * sigma4[1, 0]
        with pytest.raises(InadmissibleError):
            kl_additive(sigma4, shift)
        with pytest.raises(InadmissibleError):
            kl_gaussian(np.zeros(4), sigma4, np.zeros(4), sigma4 + shift)

    def test_pure_mean_shift_is_the_quadratic_term(self, rng):
        cov = _random_spd(rng, 3)
        d = rng.uniform(-1, 1, size=3)
        expected = 0.5 * d @ np.linalg.inv(cov) @ d
        assert kl_additive(cov, np.zeros((3, 3)), d) == pytest.approx(expected, rel=1e-9)

    def test_oracle_agreement_on_random_admissible_instances(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 6))
            cov = _random_spd(rng, n)
            shift = rng.uniform(-0.2, 0.2, size=(n, n))
            shift = (shift + shift.T) / 2
            if not is_psd(cov + shift):
                continue
            d = rng.uniform(-1, 1, size=n)
            got = kl_additive(cov, shift, d)
            want = kl_gaussian(np.zeros(n), cov, -d, cov + shift)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_inadmissible_shift_raises(self):
        with pytest.raises(InadmissibleError):
            kl_additive(np.eye(2), np.diag([-2.0, 0.0]))


class TestKlMp:
    def test_all_ones_plan_is_exactly_zero(self, sigma4, stmt4):
        plan = build_plan(make_variation(4, [(0, 0, 1.0)]), Scheme("none"), [stmt4])
        assert kl_mp(sigma4, plan) == 0.0

    def test_total_plan_matches_closed_form(self, sigma4, stmt4):
        plan = build_plan(make_variation(4, [(1, 0, 1.25)]), Scheme("total"), [stmt4])
        assert kl_mp(sigma4, plan) == pytest.approx(KL_TOTAL_125_N4, rel=1e-10)

    def test_partial_plan_agrees_with_general_form(self, sigma4, stmt4):
        plan = build_plan(make_variation(4, [(1, 0, 1.25)]), Scheme("partial"), [stmt4])
        want = kl_gaussian(None, sigma4, None, plan.apply(sigma4))
        assert kl_mp(sigma4, plan) == pytest.approx(want, rel=1e-10)

    def test_negative_determinant_raises(self, sigma4, stmt4):
        plan = build_plan(make_variation(4, [(1, 0, 1.25)]), Scheme("row"), [stmt4])
        with pytest.raises(InadmissibleError):
            kl_mp(sigma4, plan)

    def test_composed_totals_match_product_closed_form(self, sigma4, stmt4):
        p1 = build_plan(make_variation(4, [(1, 0, 1.2)]), Scheme("total"), [stmt4])
        p2 = build_plan(make_variation(4, [(2, 1, 1.1)]), Scheme("total"), [stmt4])
        combined = compose(p1, p2)
        want = kl_total_closed(4, 1.2 * 1.1)
        assert kl_mp(sigma4, combined) == pytest.approx(want, rel=1e-10)


class TestKlTotalClosed:
    def test_unit_factor_is_zero(self):
        assert kl_total_closed(4, 1.0) == 0.0

    def test_frozen_values(self):
        assert kl_total_closed(4, 1.25) == pytest.approx(KL_TOTAL_125_N4, rel=1e-12)
        assert kl_total_closed(4, 0.8) == pytest.approx(KL_TOTAL_08_N4, rel=1e-12)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            kl_total_closed(3, 0.0)
        with pytest.raises(ValueError):
            kl_total_closed(3, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        delta=st.floats(1e-6, 10.0, allow_nan=False, allow_infinity=False),
    )
    def test_nonnegative_with_zero_only_at_one(self, n, delta):
        value = kl_total_closed(n, delta)
        assert value >= 0.0
        if abs(delta - 1.0) > 1e-6:
            assert value > 0.0

    def test_agrees_with_general_form_across_dimensions(self, rng):
        for n in range(2, 7):
            cov = _random_spd(rng, n)
            for delta in (0.5, 0.8, 1.25, 2.0):
                want = kl_gaussian(np.zeros(n), cov, np.zeros(n), delta * cov)
                assert kl_total_closed(n, delta) == pytest.approx(want, rel=1e-10)


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
    def test_bitwise_equal_to_direct_form(self, rng, stmt4):
        for _ in range(20):
            delta = float(rng.uniform(0.25, 2.0))
            kind = ("total", "partial", "row", "column")[int(rng.integers(4))]
            plan = build_plan(make_variation(4, [(1, 0, delta)]), Scheme(kind), [stmt4])
            assert frobenius_mp(SIGMA4, plan) == frobenius(SIGMA4, plan.apply(SIGMA4))

    def test_composed_plan_both_ways(self, stmt4):
        p1 = build_plan(make_variation(5, [(3, 2, 1.5)]), Scheme("row"), [])
        p2 = build_plan(make_variation(5, [(2, 1, 0.8)]), Scheme("none"), [])
        combined = compose(p1, p2)
        cov = np.eye(5) + 0.1 * np.ones((5, 5))
        assert frobenius_mp(cov, combined) == frobenius(cov, combined.apply(cov))


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
        real = divergence.frobenius_mp

        def broken(cov, plan):
            return 0.0 if plan.steps[0].scheme.kind == "total" else real(cov, plan)

        monkeypatch.setattr(divergence, "frobenius_mp", broken)
        with pytest.raises(GsensError, match="total < partial"):
            scheme_ordering(sigma4, (1, 0), 1.05, stmt4)
