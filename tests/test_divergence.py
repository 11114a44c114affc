import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIGMA4, kl_dense, kl_within_rounding, random_dag, random_dag_with_statement
from gsens import (
    CIStatement,
    GsensError,
    InadmissibleError,
    PerturbationPlan,
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
    two_way_sweep,
)
from gsens import divergence
from gsens.analysis import Model, resolve_scheme
from gsens.divergence import COMPARE_SCHEMES, additive_shift, frobenius_mp, kl_additive, kl_mp
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


def _measure(cov, change, alone=None):
    """divergence.measure on a stack of one: (frobenius, kl, admissible) of
    a plan (target P o cov) or of an additive shift D (target cov + D). A
    one-step plan takes its KL from its mask's spectrum, as covary does,
    and so does a shift given the one-step plan, alone, whose change it is."""
    if isinstance(change, PerturbationPlan):
        target, shift = change.apply(cov), _plan_shift(cov, change)
        alone = change if len(change.steps) == 1 else None
    else:
        target, shift = cov + change, change
    whiten = divergence.whitener(cov)
    scaled = None if alone is None else divergence.plan_spectra(cov, whiten, [alone])
    (frob,), (value,), (admissible,) = divergence.measure(cov, whiten, target[None], shift[None], scaled)
    return float(frob), float(value), bool(admissible)


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

    @staticmethod
    def _oracle(mp, cov):
        """The KL of the exact change T = P o cov of cov for a plan product
        P, with trace and determinants at the working precision."""
        n = len(cov)
        base = mp.matrix(cov.tolist())
        prec, logdet = mp.inverse(base), mp.log(mp.det(base))

        def kl_of(product):
            target = mp.matrix(n, n)
            for a in range(n):
                for b in range(n):
                    target[a, b] = mp.mpf(product[a, b]) * cov[a, b]
            trace = mp.fsum(prec[a, b] * target[b, a] for a in range(n) for b in range(n))
            return (trace - n + logdet - mp.log(mp.det(target))) / 2

        return kl_of

    def test_matches_exact_change_at_fixture_points(self):
        # one-way rows, every one of them on its scheme's mask spectrum: the
        # reference is the KL of the exact change T = P o cov (T = cov + D
        # for the standard row), at 50 digits
        mp = pytest.importorskip("mpmath")
        deltas = [1.0 + s for s in ORACLE_STEPS] + [1.0 - s for s in ORACLE_STEPS]
        checked = 0
        for name, position in ORACLE_POSITIONS:
            model = load_model(fixture_path(name))
            cov, n = model.covariance, model.n
            i, j = model.resolve_position(position)
            with mp.workdps(50):
                kl_of = self._oracle(mp, cov)
                table = one_way_sweep(model, (i, j), deltas)
                rows = zip(table.factors.tolist(), table.scheme, table.kl.tolist(), table.admissible)
                for (delta,), scheme, got, admissible in rows:
                    if not admissible:
                        continue
                    # the standard change is the position-only plan's
                    kind = "none" if scheme == "standard" else scheme
                    product = build_plan(Variation(n, i, j, delta), Scheme(kind), model.statements).product
                    want = kl_of(product)
                    assert abs(got - want) <= 1e-12 * want, (name, position, scheme, delta)
                    checked += 1
        assert checked > 200

    # two-way fixture sweeps whose schemes give both positions one mask
    EQUAL_MASKS = (
        ("synthetic4", ("Y2,Y1", "Y3,Y2"),
         ("total", "partial", {"kind": "row", "E": ["Y2", "Y3"]}, {"kind": "column", "F": ["Y1", "Y2"]})),
        ("cachexia", ("GM,V", "GC,B"), ("total",)),
        ("cachexia_control", ("V,B", "GC,B"), ("total",)),
    )

    def test_two_way_rows_with_equal_masks_match_the_exact_change(self):
        # each row's change is (fl(delta1 delta2) - 1) (M o cov) on its
        # scheme's one mask; 0.8 x 1.25 offsets exactly, to KL 0
        mp = pytest.importorskip("mpmath")
        deltas1 = [0.8, 0.95, 1.0 - 1e-6, 1.0 + 1e-10, 1.0 + 1e-4, 1.05]
        deltas2 = [0.9, 1.0 + 1e-8, 1.25]
        checked = offset = 0
        for name, pair, schemes in self.EQUAL_MASKS:
            model = load_model(fixture_path(name))
            cov, n = model.covariance, model.n
            positions = tuple(model.resolve_position(p) for p in pair)
            with mp.workdps(50):
                kl_of = self._oracle(mp, cov)
                table = two_way_sweep(model, positions, deltas1, deltas2, schemes)
                for k, (d1, d2) in enumerate(table.factors.tolist()):
                    spec = resolve_scheme(model, schemes[k % len(schemes)])
                    plans = [build_plan(Variation(n, *at, d), spec, model.statements) for at, d in zip(positions, (d1, d2))]
                    assert np.array_equal(*(plan.masks[0] for plan in plans)), (name, spec)
                    product = compose(*plans).product
                    got = table.kl[k]
                    if d1 * d2 == 1.0:
                        assert (product == 1.0).all() and table.admissible[k] and got == 0.0, (name, spec)
                        offset += 1
                    if not table.admissible[k]:
                        continue
                    want = kl_of(product)
                    assert abs(got - want) <= 1e-12 * want, (name, spec, d1, d2)
                    checked += 1
        assert checked > 60 and offset == 6

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
            plans = (build_plan(Variation(n, i, j, d), Scheme(kind), statements) for (i, j), d in zip(positions, deltas))
            change = functools.reduce(compose, plans)
            shift = _plan_shift(cov, change)
        _, value, admissible = _measure(cov, change)
        if all(d == 1.0 for d in deltas):
            assert admissible and value == 0.0
        if admissible:
            assert value >= 0.0
            assert (value == 0.0) == (not shift.any())

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

    def test_rows_beyond_the_spectrum_limit_keep_the_per_row_rule(self, sigma4):
        # total's base is sigma4 itself, whose whitened spectrum is all 1: at
        # c = 1e307 the change c sigma4 overflows, so the row is inadmissible
        # by rule although c lam is finite; within the limit, c lam agrees
        # with the per-row spectrum to rounding
        whiten = divergence.whitener(sigma4)
        lam, reach = divergence.spectra(whiten, sigma4[None])
        np.testing.assert_allclose(lam, 1.0, rtol=1e-12)
        for c, admissible in ((1e307, False), (0.99 * divergence.SPECTRUM_LIMIT / reach[0], True), (0.1, True)):
            with np.errstate(all="ignore"):
                shifts = c * sigma4[None]
                got = divergence.kl_stack(whiten, shifts, (lam, reach, np.array([c])))
                per_row = divergence.kl_stack(whiten, shifts)
            assert got[1].tolist() == per_row[1].tolist() == [admissible], c
            np.testing.assert_allclose(got[0], per_row[0], rtol=1e-13)

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
        plan = build_plan(Variation(4, 0, 0, 1.0), Scheme("none"), [stmt4])
        assert kl_mp(sigma4, plan) == 0.0

    def test_total_plan_matches_closed_form(self, sigma4, stmt4):
        # the total plan's shift is 0.25 * cov exactly, whose KL
        # test_rescaled_covariance_matches_closed_form pins
        plan = build_plan(Variation(4, 1, 0, 1.25), Scheme("total"), [stmt4])
        np.testing.assert_array_equal(_plan_shift(sigma4, plan), 0.25 * sigma4)

    def test_partial_plan_agrees_with_general_form(self, sigma4, stmt4):
        plan = build_plan(Variation(4, 1, 0, 1.02), Scheme("partial"), [stmt4])
        want = kl_dense(sigma4, plan.apply(sigma4))
        assert kl_mp(sigma4, plan) == pytest.approx(want, rel=1e-10)

    def test_negative_determinant_raises(self, sigma4, stmt4):
        plan = build_plan(Variation(4, 1, 0, 1.25), Scheme("row"), [stmt4])
        with pytest.raises(InadmissibleError):
            kl_mp(sigma4, plan)

    def test_composed_totals_match_product_closed_form(self, sigma4, stmt4):
        p1 = build_plan(Variation(4, 1, 0, 1.2), Scheme("total"), [stmt4])
        p2 = build_plan(Variation(4, 2, 1, 1.1), Scheme("total"), [stmt4])
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
        # the sweep path: a total plan on a random DAG of each size, through measure
        for n in range(2, 7):
            _, cov = dag_to_gaussian(random_dag(rng, n))
            for delta in (0.5, 0.8, 1.25, 2.0):
                plan = build_plan(Variation(n, n - 1, 0, delta), Scheme("total"), [])
                closed = 0.5 * n * (delta - 1.0 - math.log(delta))
                assert _measure(cov, plan)[1] == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("name", ["synthetic4", "cachexia", "cachexia_control"])
    def test_total_closed_form_on_fixtures(self, name):
        # n/2 (x - ln(1 + x)) with x = delta - 1, at 50 digits
        mp = pytest.importorskip("mpmath")
        model = load_model(fixture_path(name))
        for delta in np.concatenate([np.logspace(-3, 3, 61), 1.0 + np.array(ORACLE_STEPS)]):
            v = Variation(model.n, 1, 0, float(delta))
            plan = build_plan(v, Scheme("total"), model.statements)
            got = _measure(model.covariance, plan)[1]
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
    """frobenius_mp is frobenius(cov, P o cov), bitwise what measure reports."""

    def test_bitwise_equal_to_direct_form(self, rng, stmt4):
        for _ in range(20):
            delta = float(rng.uniform(0.25, 2.0))
            kind = ("total", "partial", "row", "column")[int(rng.integers(4))]
            plan = build_plan(Variation(4, 1, 0, delta), Scheme(kind), [stmt4])
            assert frobenius_mp(SIGMA4, plan) == frobenius(SIGMA4, plan.apply(SIGMA4))

    def test_composed_plan_both_ways(self, stmt4):
        p1 = build_plan(Variation(5, 3, 2, 1.5), Scheme("row"), [])
        p2 = build_plan(Variation(5, 2, 1, 0.8), Scheme("none"), [])
        combined = compose(p1, p2)
        cov = np.eye(5) + 0.1 * np.ones((5, 5))
        assert frobenius_mp(cov, combined) == _measure(cov, combined)[0]


def _cell(value):
    """A float as its bytes, so that -0.0 and 0.0 differ; NaN as None."""
    return None if value != value else np.float64(value).tobytes()


def _row(frob, value, admissible):
    """A row's (frobenius, kl, admissible), floats as _cell gives them."""
    return _cell(frob), _cell(value), bool(admissible)


def _rows(columns):
    """The rows of columns (frobenius, kl, admissible), as _row gives them."""
    return [_row(*r) for r in zip(*columns)]


class TestSchemeOrdering:
    def test_chain_on_toy_fixture(self, sigma4, stmt4):
        frob, _, _ = scheme_ordering(sigma4, (1, 0), 1.25, stmt4)
        assert COMPARE_SCHEMES == ("total", "partial", "row", "column", "standard")
        f = dict(zip(COMPARE_SCHEMES, frob))
        assert f["total"] >= f["partial"] >= f["row"]
        assert f["partial"] >= f["column"]
        assert f["row"] >= f["standard"] and f["column"] >= f["standard"]

    def test_unit_factor_degenerates_to_zero(self, sigma4, stmt4):
        frob, values, _ = scheme_ordering(sigma4, (1, 0), 1.0, stmt4)
        assert (frob == 0.0).all()
        assert (values == 0.0).all()

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
        _, values, admissible = scheme_ordering(sigma4, (1, 0), 1.25, stmt4)
        assert not admissible.all()
        assert (np.isnan(values) == ~admissible).all()

    def test_ordering_violation_is_a_gsens_error(self, monkeypatch, sigma4, stmt4):
        # the check must survive python -O and reach the CLI as exit 1
        real = divergence.measure

        def broken(*args):
            frob, values, admissible = real(*args)
            frob[0] = 0.0  # the total row
            return frob, values, admissible

        monkeypatch.setattr(divergence, "measure", broken)
        with pytest.raises(GsensError, match="total < partial"):
            scheme_ordering(sigma4, (1, 0), 1.05, stmt4)


def _evaluated(cov, position, delta, stmt):
    """Each compare row by the public definitions, one scheme at a time: the
    frobenius of its target and the kl_mp or kl_additive of its change,
    which is inadmissible (KL NaN) where that raises InadmissibleError or
    SingularMatrixError, and the change itself."""
    variation = Variation(cov.shape[0], *position, delta)
    rows = []
    for kind in COMPARE_SCHEMES:
        if kind == "standard":
            shift = additive_shift(cov, (position,), (delta,))
            target, kl_of = cov + shift, functools.partial(kl_additive, cov, shift)
        else:
            plan = build_plan(variation, Scheme(kind, None, 0), (stmt,))
            target, kl_of = plan.apply(cov), functools.partial(kl_mp, cov, plan)
            shift = _plan_shift(cov, plan)
        try:
            value, admissible = kl_of(), True
        except (InadmissibleError, SingularMatrixError):
            value, admissible = math.nan, False
        rows.append((frobenius(cov, target), value, admissible, shift))
    return rows


def _assert_definitions(cov, columns, expected):
    """The compare table's rows are the definitions': Frobenius bitwise, KL
    and admissibility up to the rounding of each change's spectrum (the
    table takes them from its masks' spectra)."""
    assert len(columns[0]) == len(expected)
    for (frob, value, admissible), (want, exact, definite, shift) in zip(zip(*columns), expected):
        assert _cell(frob) == _cell(want)
        assert kl_within_rounding(cov, shift, (float(value), bool(admissible)), (exact, definite)), (value, exact)


COMPARE_FACTORS = (1e-300, 0.9, 1.0, 1.1, 1e300)


class TestStackedSchemeOrdering:
    """scheme_ordering takes its five rows from one whitener and one
    measure; each row's Frobenius must be bitwise what the definitions give
    for it, and its KL and flag that up to rounding (_assert_definitions)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), delta=st.sampled_from(COMPARE_FACTORS) | st.floats(0.5, 2.0))
    def test_rows_match_the_definitions_bitwise(self, seed, delta):
        rng = np.random.default_rng(seed)
        cov, statements = random_dag_with_statement(rng)
        stmt = statements[int(rng.integers(len(statements)))]
        position = (int(rng.choice(stmt.block_rows)), int(rng.choice(stmt.block_cols)))
        with np.errstate(all="ignore"):
            columns = scheme_ordering(cov, position, delta, stmt)
            expected = _evaluated(cov, position, delta, stmt)
        _assert_definitions(cov, columns, expected)

    @pytest.fixture
    def whitener_calls(self, monkeypatch):
        calls = []
        real = divergence.whitener
        monkeypatch.setattr(divergence, "whitener", lambda cov: calls.append(cov) or real(cov))
        return calls

    @pytest.mark.parametrize("delta", COMPARE_FACTORS)
    def test_one_whitener_per_call_at_each_factor(self, whitener_calls, sigma4, stmt4, delta):
        with np.errstate(all="ignore"):
            columns = scheme_ordering(sigma4, (1, 0), delta, stmt4)
            assert len(whitener_calls) == 1
            expected = _evaluated(sigma4, (1, 0), delta, stmt4)
        _assert_definitions(sigma4, columns, expected)

    def test_singular_base_makes_every_row_inadmissible(self, whitener_calls):
        # a _||_ c | b on a base whose first two variables are collinear
        cov = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        stmt = CIStatement(left=(0,), right=(2,), given=(1,))
        frob, values, admissible = scheme_ordering(cov, (1, 0), 1.1, stmt)
        assert len(whitener_calls) == 1
        assert not admissible.any()
        assert np.isnan(values).all() and (frob > 0.0).all()
        _assert_definitions(cov, (frob, values, admissible), _evaluated(cov, (1, 0), 1.1, stmt))


# the factors of the one-evaluator properties: a negative factor (which
# total refuses), both ends of the float range and ordinary factors
EVALUATOR_FACTORS = st.sampled_from([-0.5, 1e-300, 1e300]) | st.floats(0.5, 2.0)


class TestOneEvaluator:
    """Sweeps, the compare table and covary print measure's numbers: a plan's
    measure is its sweep row, and the compare table is a one-point sweep
    over the four plan kinds (against the model's one statement) and the
    standard change, bit for bit, NaN for NaN and error for error."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["total", "partial", "row", "column", "none", "standard"]),
        delta=EVALUATOR_FACTORS,
    )
    def test_a_single_row_measure_is_the_sweep_row(self, seed, kind, delta):
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, int(rng.integers(2, 8)))
        mean, cov = dag_to_gaussian(dag)
        model = Model(tuple(f"v{k}" for k in range(dag.n)), mean, cov, dag_ci_statements(dag), dag)
        position = tuple(int(k) for k in rng.integers(dag.n, size=2))
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            table = one_way_sweep(model, position, [delta], [kind])
            if kind == "standard":
                change = additive_shift(cov, (position,), (delta,))
                alone = build_plan(Variation(dag.n, *position, delta), Scheme("none"), ())
                row = _row(*_measure(cov, change, alone))
            else:
                try:
                    change = build_plan(Variation(dag.n, *position, delta), Scheme(kind), model.statements)
                except GsensError as e:
                    assert table.error == (str(e),)
                    return
                row = _row(*_measure(cov, change))
        assert table.error == (None,)
        assert row == _row(table.frobenius[0], table.kl[0], table.admissible[0])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), delta=EVALUATOR_FACTORS)
    def test_the_compare_table_is_a_one_point_sweep(self, seed, delta):
        rng = np.random.default_rng(seed)
        cov, statements = random_dag_with_statement(rng)
        stmt = statements[int(rng.integers(len(statements)))]
        n = cov.shape[0]
        model = Model(tuple(f"v{k}" for k in range(n)), np.zeros(n), cov, (stmt,))
        position = tuple(int(k) for k in rng.integers(n, size=2))
        schemes = [{"kind": kind, "statement_index": 1} for kind in COMPARE_SCHEMES[:-1]] + ["standard"]
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            table = one_way_sweep(model, position, [delta], schemes)
            assert table.scheme == COMPARE_SCHEMES
            try:
                columns = scheme_ordering(cov, position, delta, stmt)
            except GsensError as e:
                # the first scheme that fails to build, in table order
                assert str(e) == next(error for error in table.error if error is not None)
                return
        assert table.error == (None,) * len(COMPARE_SCHEMES)
        assert _rows(columns) == _rows((table.frobenius, table.kl, table.admissible))
