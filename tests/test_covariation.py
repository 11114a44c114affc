import traceback
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SIGMA4,
    STMT5_A,
    STMT5_B,
    filled,
    model5,
    random_dag,
)
from gsens import (
    CIStatement,
    FactorError,
    ModelPreconditionError,
    Scheme,
    SchemeError,
    Variation,
    build_plan,
    compose,
    dag_ci_statements,
    dag_to_gaussian,
    model_holds,
    verify_preserving,
)
from gsens.covariation import SCHEME_KINDS, _fill
from gsens.matcore import is_psd


class TestVariation:
    def test_single_position_matrix(self):
        # normalised to i <= j; the plan without covariation scales the position alone
        v = Variation(3, 1, 0, 2)
        assert (v.i, v.j, v.delta) == (0, 1, 2.0) and type(v.delta) is float
        assert v == Variation(3, 0, 1, 2.0)
        expected = np.ones((3, 3))
        expected[0, 1] = expected[1, 0] = 2.0
        np.testing.assert_array_equal(build_plan(v, Scheme("none"), []).product, expected)

    @pytest.mark.parametrize("i,j", [(3, 0), (0, -1)])
    def test_position_out_of_range_rejected(self, i, j):
        with pytest.raises(IndexError, match=rf"position \({i + 1},{j + 1}\) out of range for dimension 3"):
            Variation(3, i, j, 2.0)

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError, match="spurious independence"):
            Variation(3, 0, 1, 0.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_factor_rejected(self, delta):
        with pytest.raises(FactorError, match="not finite"):
            Variation(3, 0, 1, delta)

    def test_diagonal_position_allowed(self):
        plan = build_plan(Variation(2, 1, 1, 0.5), Scheme("none"), [])
        np.testing.assert_array_equal(plan.product, filled(2, (1,), (1,), 0.5))


class TestBuildScheme:
    """Plans against a single statement; the three-variable model conditions
    on variable 2 (1-based), with the varied entry at (2,1)."""

    STMT = CIStatement(left=(2,), right=(0,), given=(1,))

    def plans(self, delta=2.0):
        v = Variation(3, 1, 0, delta)
        return {
            kind: build_plan(v, Scheme(kind), [self.STMT])
            for kind in ("total", "partial", "row", "column")
        }

    def test_row_covaries_the_conditioned_diagonal(self):
        p = self.plans()["row"]
        expected = np.ones((3, 3))
        expected[0, 1] = expected[1, 0] = 2.0  # varied
        expected[1, 1] = 2.0  # covaried
        np.testing.assert_array_equal(p.product, expected)
        # the covariation itself leaves the varied entry alone
        covariation = p.product / filled(3, (0,), (1,), 2.0)
        assert covariation[1, 0] == 1.0 and covariation[1, 1] == 2.0

    def test_column_covaries_the_opposite_covariances(self):
        p = self.plans()["column"]
        expected = np.ones((3, 3))
        expected[0, 1] = expected[1, 0] = 2.0
        expected[0, 2] = expected[2, 0] = 2.0
        np.testing.assert_array_equal(p.product, expected)

    def test_partial_fills_the_block(self):
        p = self.plans()["partial"]
        expected = np.full((3, 3), 2.0)
        expected[0, 0] = expected[2, 2] = 1.0
        np.testing.assert_array_equal(p.product, expected)

    def test_total_fills_everything(self):
        np.testing.assert_array_equal(self.plans()["total"].product, np.full((3, 3), 2.0))

    def test_position_outside_block_needs_no_covariation(self):
        v = Variation(3, 0, 0, 5.0)
        with pytest.warns(UserWarning, match="outside the statement block"):
            p = build_plan(v, Scheme("partial"), [self.STMT])
        np.testing.assert_array_equal(p.product, filled(3, (0,), (0,), 5.0))
        assert p.steps == ((v, Scheme("none")),)

    def test_total_with_nonpositive_factor_rejected(self):
        v = Variation(3, 1, 0, -0.5)
        with pytest.raises(SchemeError, match="delta > 0"):
            build_plan(v, Scheme("total"), [self.STMT])

    def test_negative_factor_warns_for_partial(self):
        v = Variation(3, 1, 0, -0.5)
        with pytest.warns(UserWarning, match="negative factor"):
            build_plan(v, Scheme("partial"), [self.STMT])

    def test_row_set_for_conditioned_position_must_be_the_conditioning_set(self):
        v = Variation(3, 1, 0, 2.0)  # position in given x right
        with pytest.raises(SchemeError, match=r"row set \[3\] does not fit position \(1,2\)"):
            build_plan(v, Scheme("row", subset=(2,)), [self.STMT])

    def test_column_superset_within_right_side_is_accepted(self):
        stmt = CIStatement(left=(3,), right=(0, 1), given=(2,))
        v = Variation(4, 3, 0, 1.5)  # left x right position
        p = build_plan(v, Scheme("column", subset=(0, 1)), [stmt])
        np.testing.assert_array_equal(
            p.product, filled(4, (2, 3), (0, 1), 1.5)
        )

    def test_column_set_must_contain_the_varied_column(self):
        stmt = CIStatement(left=(3,), right=(0, 1), given=(2,))
        v = Variation(4, 3, 0, 1.5)
        with pytest.raises(SchemeError, match=r"column set \[2\] does not fit position \(1,4\)"):
            build_plan(v, Scheme("column", subset=(1,)), [stmt])


class TestUnionConstruction:
    """Two overlapping five-variable statements; the varied entry is (4,3)
    1-based, i.e. the shared conditioning column."""

    def variation(self, delta=1.5):
        return Variation(5, 3, 2, delta)

    def test_default_row_fills_the_bottom_row(self):
        p = build_plan(self.variation(), Scheme("row"), [STMT5_A, STMT5_B])
        np.testing.assert_array_equal(
            p.product, filled(5, (3,), (0, 1, 2, 4), 1.5)
        )

    def test_default_column_widens_to_the_overlap(self):
        p = build_plan(self.variation(), Scheme("column"), [STMT5_A, STMT5_B])
        np.testing.assert_array_equal(
            p.product, filled(5, (1, 2, 3), (1, 2), 1.5)
        )

    def test_single_column_fill_is_rejected(self):
        with pytest.raises(SchemeError, match="not symmetrizable"):
            build_plan(self.variation(), Scheme("column", subset=(2,)), [STMT5_A, STMT5_B])

    def test_explicit_widened_column_is_accepted(self):
        p = build_plan(self.variation(), Scheme("column", subset=(1, 2)), [STMT5_A, STMT5_B])
        assert p.steps == ((self.variation(), Scheme("column", (1, 2))),)

    def test_statement_beyond_the_dimension_rejected(self):
        with pytest.raises(IndexError, match="statement index 5 out of range for dimension 4"):
            build_plan(Variation(4, 3, 2, 1.5), Scheme("row"), [STMT5_A, STMT5_B])

    @pytest.mark.parametrize("index", [-1, 2])
    def test_statement_index_out_of_range_rejected(self, index):
        with pytest.raises(SchemeError, match=r"statement index -?\d+ out of range \(2 statements\)"):
            build_plan(self.variation(), Scheme("row", None, index), [STMT5_A, STMT5_B])

    def test_position_outside_every_block(self):
        v = Variation(5, 0, 0, 2.0)
        with pytest.warns(UserWarning, match="outside the statement block"):
            p = build_plan(v, Scheme("partial"), [STMT5_A, STMT5_B])
        np.testing.assert_array_equal(p.product, filled(5, (0,), (0,), 2.0))


class TestValidateMulti:
    """Validity of a plan against several statements is decided on the fill
    mask, so the verdict is the same at every factor, 1 included."""

    STATEMENTS = [STMT5_A, STMT5_B]
    DELTAS = (1.0, 0.5, -1.0, 1.5)

    def _build(self, scheme, delta):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # negative factors warn
            return build_plan(Variation(5, 3, 2, delta), scheme, self.STATEMENTS)

    def test_single_column_fails_fixed_point(self):
        for delta in self.DELTAS:
            with pytest.raises(SchemeError, match="not symmetrizable"):
                self._build(Scheme("column", subset=(2,)), delta)

    def test_filled_column_passes(self):
        for delta in self.DELTAS:
            plan = self._build(Scheme("column", subset=(1, 2)), delta)
            np.testing.assert_array_equal(plan.product, filled(5, (1, 2, 3), (1, 2), delta))

    def test_all_ones_plan_passes(self):
        # the covariation is all ones: the plan scales the position alone
        plan = build_plan(Variation(5, 0, 0, 2.0), Scheme("none"), self.STATEMENTS)
        np.testing.assert_array_equal(plan.product, filled(5, (0,), (0,), 2.0))

    def test_no_conditional_statements_is_trivially_valid(self):
        v = Variation(3, 0, 1, 2.0)
        plan = build_plan(v, Scheme("partial"), [])
        np.testing.assert_array_equal(plan.product, filled(3, (0,), (1,), 2.0))
        assert plan.steps == ((v, Scheme("none")),)


class TestFillMemo:
    """build_plan memoises each position's delta-free fill; nothing it
    returns, warns or raises depends on whether the fill was cached."""

    STMT = CIStatement(left=(2,), right=(0,), given=(1,))

    def test_outside_the_block_warns_on_every_build(self):
        v = Variation(3, 0, 0, 5.0)
        for _ in range(2):
            with pytest.warns(UserWarning, match="outside the statement block"):
                build_plan(v, Scheme("partial"), [self.STMT])

    def test_writing_a_product_leaves_the_next_plan_alone(self):
        v = Variation(3, 1, 0, 2.0)
        build_plan(v, Scheme("row"), [self.STMT]).product[:] = 7.0
        hits = _fill.cache_info().hits
        plan = build_plan(v, Scheme("row"), [self.STMT])
        assert _fill.cache_info().hits == hits + 1
        np.testing.assert_array_equal(plan.product, filled(3, (1,), (0, 1), 2.0))

    def test_cached_mask_is_read_only(self):
        fill = _fill(3, 1, 0, Scheme("partial"), (self.STMT,))
        assert not fill.mask.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fill.mask[0, 0] = True

    def test_models_differing_in_dimension_or_statements_get_their_own_fill(self):
        wider = CIStatement(left=(2,), right=(0,), given=(1, 3))
        builds = [(3, [self.STMT], (1, 2), (0, 1)), (4, [self.STMT], (1, 2), (0, 1)),
                  (4, [wider], (1, 2, 3), (0, 1, 3))]
        for n, statements, rows, cols in builds:
            plan = build_plan(Variation(n, 1, 0, 2.0), Scheme("partial"), statements)
            np.testing.assert_array_equal(plan.product, filled(n, rows, cols, 2.0))

    def test_repeated_refusal_keeps_its_traceback_depth(self):
        v = Variation(3, 1, 0, 2.0)
        depths = set()
        for _ in range(1000):
            try:
                build_plan(v, Scheme("row", subset=(2,)), [self.STMT])
            except SchemeError as e:
                depths.add(len(traceback.extract_tb(e.__traceback__)))
        assert len(depths) == 1


class TestCompose:
    def test_two_factor_composition_by_hand(self):
        # factor 1: bottom-row fill at (4,3); factor 2: two-column fill at (3,2)
        d1, d2 = 1.5, 0.8
        p1 = build_plan(Variation(5, 3, 2, d1), Scheme("row"), [STMT5_A, STMT5_B])
        p2 = build_plan(Variation(5, 2, 1, d2), Scheme("column"), [STMT5_A, STMT5_B])
        combined = compose(p1, p2)
        expected = np.ones((5, 5))
        expected[3, 0] = expected[0, 3] = d1
        expected[3, 4] = expected[4, 3] = d1
        expected[1, 1] = expected[1, 2] = expected[2, 1] = expected[2, 2] = d2
        expected[3, 1] = expected[1, 3] = d1 * d2
        expected[3, 2] = expected[2, 3] = d1 * d2
        np.testing.assert_array_equal(combined.product, expected)

    def test_identity_composition(self, sigma4, stmt4):
        p = build_plan(Variation(4, 1, 0, 1.25), Scheme("partial"), [stmt4])
        ones = build_plan(Variation(4, 0, 0, 1.0), Scheme("none"), [stmt4])
        np.testing.assert_array_equal(compose(p, ones).product, p.product)

    def test_self_composition_squares_factors(self, stmt4):
        p = build_plan(Variation(4, 1, 0, 1.25), Scheme("partial"), [stmt4])
        squared = compose(p, p)
        np.testing.assert_array_equal(squared.product, p.product * p.product)
        assert squared.steps == p.steps + p.steps

    def test_commutative(self, stmt4):
        p1 = build_plan(Variation(4, 1, 0, 1.25), Scheme("row"), [stmt4])
        p2 = build_plan(Variation(4, 2, 1, 0.8), Scheme("column"), [stmt4])
        np.testing.assert_array_equal(compose(p1, p2).product, compose(p2, p1).product)

    def test_dimension_mismatch(self, stmt4):
        p1 = build_plan(Variation(4, 1, 0, 1.25), Scheme("row"), [stmt4])
        p2 = build_plan(Variation(3, 0, 1, 2.0), Scheme("none"), [])
        with pytest.raises(ValueError):
            compose(p1, p2)

    def test_product_underflowing_to_zero_is_a_factor_error(self, stmt4):
        # both total plans scale every entry; 1e-200 * 1e-200 underflows to 0
        p1 = build_plan(Variation(4, 1, 0, 1e-200), Scheme("total"), [stmt4])
        p2 = build_plan(Variation(4, 2, 1, 1e-200), Scheme("total"), [stmt4])
        with pytest.raises(FactorError, match="plan product has zero entries"):
            compose(p1, p2)

    def test_application_matches_sequential_perturbation(self, rng, stmt4):
        cov = SIGMA4
        for _ in range(20):
            d1, d2 = rng.uniform(0.25, 2, size=2)
            p1 = build_plan(Variation(4, 1, 0, d1), Scheme("partial"), [stmt4])
            p2 = build_plan(Variation(4, 2, 1, d2), Scheme("row"), [stmt4])
            sequential = p1.apply(p2.apply(cov))
            at_once = compose(p1, p2).apply(cov)
            np.testing.assert_allclose(at_once, sequential, rtol=1e-12)


class TestVerifyPreserving:
    def test_partial_preserves(self, sigma4, stmt4):
        plan = build_plan(Variation(4, 1, 0, 1.25), Scheme("partial"), [stmt4])
        assert verify_preserving(plan, sigma4, [stmt4]).holds

    def test_bare_variation_breaks_with_hand_witness(self, sigma4, stmt4):
        plan = build_plan(Variation(4, 1, 0, 1.25), Scheme("none"), [stmt4])
        check = verify_preserving(plan, sigma4, [stmt4])
        assert not check.holds
        assert check.first_failure[1].value == pytest.approx(2.5)  # (1.25*2)*5 - 5*2

    def test_input_not_in_model_raises(self, sigma4, stmt4):
        broken = sigma4.copy()
        broken[1, 0] = broken[0, 1] = 2.5
        plan = build_plan(Variation(4, 1, 0, 1.25), Scheme("partial"), [stmt4])
        with pytest.raises(ModelPreconditionError):
            verify_preserving(plan, broken, [stmt4])

    def test_naive_per_statement_columns_break_the_joint_model(self, rng):
        cov = model5(rng)
        statements = [STMT5_A, STMT5_B]
        assert model_holds(cov, statements).holds
        v = Variation(5, 3, 2, 1.5)
        naive = compose(
            build_plan(v, Scheme("column", statement_index=0), [STMT5_A, STMT5_B]),
            build_plan(v, Scheme("column", statement_index=1), [STMT5_A, STMT5_B]),
        )
        assert naive.product[2, 2] == pytest.approx(1.5 * 1.5)
        assert not verify_preserving(naive, cov, statements).holds

    def test_corrected_union_column_preserves(self, rng):
        cov = model5(rng)
        plan = build_plan(
            Variation(5, 3, 2, 1.5), Scheme("column", subset=(1, 2)), [STMT5_A, STMT5_B]
        )
        assert verify_preserving(plan, cov, [STMT5_A, STMT5_B]).holds


def _position_inside_block(rng, statements):
    stmt = statements[rng.integers(len(statements))]
    i = int(rng.choice(stmt.block_rows))
    j = int(rng.choice(stmt.block_cols))
    return (i, j) if rng.random() < 0.5 else (j, i)


class TestSchemeSoundness:
    def test_random_instances_all_preserve(self, rng):
        # Odd draws take a default set under each kind in turn; even draws
        # take a row or column set drawn from the block, and a quarter of
        # all draws target one statement, marginal ones included. A refused
        # set is skipped; every plan that builds keeps its target statements.
        kinds = ("total", "partial", "row", "column")
        done = 0
        while done < 60:
            dag = random_dag(rng)
            statements = dag_ci_statements(dag)
            if not any(s.given for s in statements):
                continue
            _, cov = dag_to_gaussian(dag)
            index = int(rng.integers(len(statements))) if rng.random() < 0.25 else None
            targets = [s for s in statements if s.given] if index is None else [statements[index]]
            i, j = _position_inside_block(rng, targets)
            delta = float(rng.uniform(0.25, 2.0))
            if abs(delta - 1.0) < 0.05:
                continue
            if done % 2:
                scheme = Scheme(kinds[done // 2 % 4], None, index)
            else:
                kind = ("row", "column")[done // 2 % 2]
                side = sorted({k for s in targets for k in (s.block_rows if kind == "row" else s.block_cols)})
                subset = rng.choice(side, size=int(rng.integers(1, len(side) + 1)), replace=False)
                scheme = Scheme(kind, tuple(int(k) for k in subset), index)
            try:
                plan = build_plan(Variation(dag.n, i, j, delta), scheme, statements)
            except SchemeError:
                continue
            assert verify_preserving(plan, cov, targets).holds, (
                f"{scheme} failed for n={dag.n}, position ({i},{j}), delta={delta}"
            )
            done += 1

    def test_marginal_only_models_are_free(self, rng):
        # a model made of marginal independences is preserved by any variation
        dag = random_dag(rng, n=4, edge_prob=0.0)
        _, cov = dag_to_gaussian(dag)
        statements = [CIStatement(left=(0,), right=(1,)), CIStatement(left=(2,), right=(3,))]
        assert model_holds(cov, statements).holds
        plan = build_plan(Variation(4, 0, 1, 1.7), Scheme("partial"), statements)
        np.testing.assert_array_equal(plan.product, filled(4, (0,), (1,), 1.7))
        assert verify_preserving(plan, cov, statements).holds

    def test_separable_statements_compose_per_statement(self, rng):
        # block-diagonal joint of two chains: the two chain statements have
        # disjoint supports, so per-statement plans compose safely
        from gsens import GaussianDag

        def chain_cov():
            betas = rng.uniform(0.5, 2.0, size=2)
            dag = GaussianDag.from_edges(3, [(0, 1, betas[0]), (1, 2, betas[1])])
            return dag_to_gaussian(dag)[1]

        cov_a = chain_cov()
        cov_b = chain_cov()
        cov = np.zeros((6, 6))
        cov[:3, :3] = cov_a
        cov[3:, 3:] = cov_b
        s1 = CIStatement(left=(2,), right=(0,), given=(1,))
        s2 = CIStatement(left=(5,), right=(3,), given=(4,))
        assert model_holds(cov, [s1, s2]).holds
        p1 = build_plan(Variation(6, 1, 0, 1.5), Scheme("row", statement_index=0), [s1, s2])
        p2 = build_plan(Variation(6, 4, 3, 0.7), Scheme("column", statement_index=1), [s1, s2])
        assert verify_preserving(compose(p1, p2), cov, [s1, s2]).holds

    def test_composition_of_preserving_plans_preserves(self, rng, sigma4, stmt4):
        for _ in range(10):
            d1, d2 = rng.uniform(0.25, 2, size=2)
            p1 = build_plan(Variation(4, 1, 0, d1), Scheme("partial"), [stmt4])
            p2 = build_plan(Variation(4, 1, 1, d2), Scheme("row"), [stmt4])
            assert verify_preserving(compose(p1, p2), sigma4, [stmt4]).holds

    def test_total_keeps_positive_semidefiniteness(self, rng):
        for _ in range(20):
            dag = random_dag(rng)
            _, cov = dag_to_gaussian(dag)
            delta = float(rng.uniform(0.01, 3.0))
            plan = build_plan(Variation(dag.n, 0, 0, delta), Scheme("total"), [])
            assert is_psd(plan.apply(cov))


class TestThreeVariableInstance:
    """The three covariation shapes applied to a numeric matrix in the
    chain model: all three perturbed matrices stay in the model."""

    COV = np.array([[1.0, 2.0, 2.0], [2.0, 5.0, 5.0], [2.0, 5.0, 6.0]])
    STMT = CIStatement(left=(2,), right=(0,), given=(1,))

    def test_all_three_shapes_preserve(self):
        assert model_holds(self.COV, [self.STMT]).holds
        v = Variation(3, 1, 0, 1.4)
        for kind in ("row", "column", "partial"):
            plan = build_plan(v, Scheme(kind), [self.STMT])
            assert model_holds(plan.apply(self.COV), [self.STMT]).holds, kind


class TestPlansAreMasks:
    """Every plan is where(M, delta, 1) for a mask M that delta does not
    touch, and plans compose by their Schur product."""

    @staticmethod
    def _build(n, i, j, delta, scheme, statements):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # outside the block, negative factors
            try:
                return build_plan(Variation(n, i, j, delta), scheme, statements)
            except SchemeError as e:
                return str(e)

    @staticmethod
    def _draw(rng, n, statements):
        """A position (diagonal a quarter of the time, anywhere in the
        matrix, so often outside every block) and a scheme of each kind,
        with a drawn row or column set half of the time and a targeted
        statement a third of the time."""
        i = int(rng.integers(n))
        j = i if rng.random() < 0.25 else int(rng.integers(n))
        kind = SCHEME_KINDS[int(rng.integers(len(SCHEME_KINDS)))]
        subset = None
        if kind in ("row", "column") and rng.random() < 0.5:
            subset = tuple(int(k) for k in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        index = int(rng.integers(len(statements))) if statements and rng.random() < 1 / 3 else None
        return i, j, Scheme(kind, subset, index)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        deltas=st.lists(st.floats(0.05, 20.0) | st.floats(-20.0, -0.05), min_size=2, max_size=5),
    )
    def test_plans_are_delta_free_masks_and_compose_as_schur_products(self, seed, deltas):
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, int(rng.integers(1, 8)))
        statements, n = dag_ci_statements(dag), dag.n
        i, j, scheme = self._draw(rng, n, statements)
        plans = [self._build(n, i, j, delta, scheme, statements) for delta in deltas]
        # total refuses a negative factor; any other refusal is delta-free
        for delta, plan in zip(deltas, plans):
            if scheme.kind == "total" and delta < 0:
                assert plan == "total covariation requires delta > 0: variances would change sign"
        built = [(d, p) for d, p in zip(deltas, plans) if not (scheme.kind == "total" and d < 0)]
        if any(isinstance(p, str) for _, p in built):
            assert len({p for _, p in built}) == 1 and isinstance(built[0][1], str)
            return

        # one mask, read off any factor other than 1, serves every factor
        moved = [plan for delta, plan in built if delta != 1.0]
        mask = moved[0].product != 1.0 if moved else np.ones((n, n), dtype=bool)
        assert mask[i, j] and mask[j, i]
        for delta, plan in built:
            np.testing.assert_array_equal(plan.product, np.where(mask, delta, 1.0))
            (variation, as_built), = plan.steps
            assert (variation.i, variation.j, variation.delta) == (min(i, j), max(i, j), delta)
            assert as_built == built[0][1].steps[0][1]

        k, l, other = self._draw(rng, n, statements)
        q = self._build(n, k, l, abs(deltas[0]), other, statements)
        if isinstance(q, str) or not built:
            return
        p = built[0][1]
        np.testing.assert_array_equal(compose(p, q).product, p.product * q.product)
        np.testing.assert_array_equal(compose(q, p).product, p.product * q.product)
        assert compose(p, q).steps == p.steps + q.steps


class TestPlanInvariants:
    def test_product_entries_never_zero(self, stmt4):
        plan = build_plan(Variation(4, 1, 0, 0.25), Scheme("partial"), [stmt4])
        assert np.all(plan.product != 0)

    def test_varied_entry_carries_requested_factor(self, stmt4):
        plan = build_plan(Variation(4, 1, 0, 1.25), Scheme("partial"), [stmt4])
        assert plan.product[1, 0] == 1.25
        assert (plan.product / filled(4, (0,), (1,), 1.25))[1, 0] == 1.0

    def test_total_factor_bookkeeping(self, stmt4):
        p1 = build_plan(Variation(4, 1, 0, 1.25), Scheme("total"), [stmt4])
        p2 = build_plan(Variation(4, 2, 1, 0.8), Scheme("total"), [stmt4])
        np.testing.assert_array_equal(p1.product, np.full((4, 4), 1.25))
        np.testing.assert_array_equal(compose(p1, p2).product, np.full((4, 4), 1.25 * 0.8))
