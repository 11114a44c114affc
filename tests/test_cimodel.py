import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import STMT5_A, certified_scalar, minor_witness, random_dag, random_dag_with_statement
from gsens import (
    DEFAULT_TOL,
    Block,
    CIStatement,
    GaussianDag,
    GsensError,
    Scheme,
    TolerancePolicy,
    Variation,
    build_plan,
    ci_holds,
    dag_ci_statements,
    dag_to_gaussian,
    iter_minors,
    model_holds,
)
from gsens import cimodel
from gsens.cli import main
from gsens.errors import ModelPreconditionError


class TestCIStatement:
    def test_sets_are_normalized(self):
        s = CIStatement(left=(3, 1), right=(0,), given=(2,))
        assert s.left == (1, 3)
        assert s.block_rows == (1, 2, 3) and s.block_cols == (0, 2)
        assert s.minor_order == 2

    def test_equal_statements_hash_equal(self):
        # the hash is computed once, from the normalised sets
        a = CIStatement(left=[3, 1], right=(0,), given=(2,))
        b = CIStatement(left=(1, 3), right=[0], given=[2])
        assert a == b and hash(a) == hash(b) == hash(dataclasses.replace(b))
        assert {a: 1}[b] == 1 and a != CIStatement(left=(1, 3), right=(0,))
        assert "_hash" not in repr(a)

    def test_block_is_computed_once_and_changes_nothing_else(self):
        s = CIStatement(left=(3, 1), right=(0,), given=(2,))
        # read twice, the same tuples: computed at construction, not per access
        assert s.block_rows is s.block_rows and s.block_cols is s.block_cols
        assert (s.block_rows, s.block_cols) == ((1, 2, 3), (0, 2))
        other = CIStatement(left=(1, 3), right=(0,), given=(2,))
        assert s == other and hash(s) == hash(other) == hash(((1, 3), (0,), (2,)))
        assert repr(s) == "CIStatement(left=(1, 3), right=(0,), given=(2,))"
        assert s.describe() == "{2,4} _||_ {1} | {3}"
        assert dataclasses.replace(s, given=()).block_rows == (1, 3)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            CIStatement(left=(0,), right=(0,), given=())

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            CIStatement(left=(), right=(1,), given=())

    def test_describe_uses_names(self):
        s = CIStatement(left=(2,), right=(0,), given=(1,))
        assert s.describe(("a", "b", "c")) == "{c} _||_ {a} | {b}"


class TestCiHolds:
    def test_fixture_statement_holds(self, sigma4, stmt4):
        res = ci_holds(sigma4, stmt4)
        assert res.holds and res.witness is None

    def test_diagonal_marginal_independence(self):
        res = ci_holds(np.eye(4), CIStatement(left=(0, 1), right=(2,)))
        assert res.holds

    def test_perturbed_entry_fails_with_exact_witness(self, sigma4, stmt4):
        broken = sigma4.copy()
        broken[1, 0] = broken[0, 1] = 2.5
        res = ci_holds(broken, stmt4)
        assert not res.holds
        assert res.witness.value == 2.5  # 2.5*5 - 5*2, computed directly
        assert res.witness.rows == (1, 2) and res.witness.cols == (0, 1)

    def test_swap_sides_gives_same_answer(self, rng):
        for _ in range(20):
            dag = random_dag(rng)
            statements = dag_ci_statements(dag)
            if not statements:
                continue
            _, cov = dag_to_gaussian(dag)
            for s in statements:
                swapped = CIStatement(left=s.right, right=s.left, given=s.given)
                assert ci_holds(cov, s).holds == ci_holds(cov, swapped).holds

    def test_out_of_range_statement(self, sigma4):
        with pytest.raises(IndexError):
            ci_holds(sigma4, CIStatement(left=(5,), right=(0,)))


class TestModelHolds:
    def test_empty_set_is_vacuous(self, sigma4):
        assert model_holds(sigma4, []).holds

    def test_collects_all_failures(self, sigma4, stmt4):
        broken = sigma4.copy()
        broken[1, 0] = broken[0, 1] = 2.5
        other = CIStatement(left=(3,), right=(0,), given=())  # sigma41 = 7 != 0
        res = model_holds(broken, [stmt4, other])
        assert not res.holds
        assert [k for k, _ in res.failures] == [0, 1]

    def test_dag_models_hold(self, rng):
        for _ in range(25):
            dag = random_dag(rng)
            _, cov = dag_to_gaussian(dag)
            assert model_holds(cov, dag_ci_statements(dag)).holds

    def test_reduction_to_nonempty_conditioning(self, rng):
        # checking the full set is the same as checking the conditional part
        # plus plain zero-entry checks for the marginal part
        for _ in range(10):
            dag = random_dag(rng)
            _, cov = dag_to_gaussian(dag)
            statements = list(dag_ci_statements(dag))
            statements.append(CIStatement(left=(0,), right=(1,)))  # usually false
            full = model_holds(cov, statements)
            reduced = model_holds(cov, [s for s in statements if s.given])
            marginals_ok = all(
                ci_holds(cov, s).holds for s in statements if not s.given
            )
            assert full.holds == (reduced.holds and marginals_ok)

    def test_require_model_certifies_each_statement_once(self, monkeypatch):
        # some statements of this model are not proved by their certificate
        # and go on to step 3, which must reuse step 2's residual
        dag = random_dag(np.random.default_rng(0), 12, edge_prob=0.3, beta_max=1.0)
        _, cov = dag_to_gaussian(dag)
        statements = dag_ci_statements(dag)
        calls, certify = [], cimodel._certify

        def counting(blocks, width):
            calls.append((blocks.shape[1] - width[0], len(blocks)))
            return certify(blocks, width)

        confirmed, confirm = [], cimodel._confirm
        monkeypatch.setattr(cimodel, "_certify", counting)
        monkeypatch.setattr(cimodel, "_confirm", lambda *args: confirmed.append(1) or confirm(*args))
        assert cimodel.require_model(cov, statements, DEFAULT_TOL, None) is None
        # step 2 runs once per group of statements that share a non-empty C,
        # on all of them at once
        sizes = sorted({len(s.given) for s in statements if s.given})
        assert calls == [(c, sum(len(s.given) == c for s in statements)) for c in sizes] and len(calls) > 1
        assert confirmed


class TestNonemptyConditioning:
    """Without a statement index, a plan is built against the statements
    with non-empty conditioning only: marginal statements are zeros of the
    covariance and survive any entrywise scaling."""

    @staticmethod
    def _plan(n, position, statements):
        return build_plan(Variation(n, *position, 1.5), Scheme("partial"), statements)

    def test_mixed(self):
        marginal = CIStatement(left=(0,), right=(1,))
        conditional = CIStatement(left=(2,), right=(3,), given=(4,))
        plan = self._plan(5, (3, 2), [marginal, conditional])
        assert plan.product.tobytes() == self._plan(5, (3, 2), [conditional]).product.tobytes()
        # the conditional statement's block rows {2,4} x cols {3,4}, and the mirror
        assert sorted(map(tuple, np.argwhere(plan.product != 1.0).tolist())) == [
            (2, 3), (2, 4), (3, 2), (3, 4), (4, 2), (4, 3), (4, 4)
        ]

    def test_all_marginal(self):
        plan = self._plan(2, (1, 0), [CIStatement(left=(0,), right=(1,))])
        assert plan.steps[0][1] == Scheme("none")
        assert plan.product.tolist() == [[1.0, 1.5], [1.5, 1.0]]

    def test_all_conditional_unchanged(self, stmt4):
        plan = self._plan(4, (1, 0), [stmt4, STMT5_A])
        # the union of both blocks, not stmt4's alone
        assert plan.product.tobytes() != self._plan(4, (1, 0), [stmt4]).product.tobytes()
        marginal = CIStatement(left=(0,), right=(3,))
        assert plan.product.tobytes() == self._plan(4, (1, 0), [stmt4, marginal, STMT5_A]).product.tobytes()


def _boundary_change(cov, stmt, rel, ratio):
    """cov with the (a, b) entry of stmt shifted so that the minor on rows
    {a}+C and columns {b}+C is about ratio times its tolerance."""
    a, b = stmt.left[0], stmt.right[0]
    rows = tuple(sorted(stmt.given + (a,)))
    cols = tuple(sorted(stmt.given + (b,)))
    minor = next(iter_minors(Block(rows, cols, cov[np.ix_(rows, cols)]), stmt.minor_order))
    cofactor = abs(np.linalg.det(cov[np.ix_(stmt.given, stmt.given)]))
    t = (ratio * rel * max(1.0, minor.scale) + abs(minor.value)) / cofactor
    out = cov.copy()
    out[a, b] += t
    out[b, a] += t
    return out


_DAG5_EDGES = ((0, 1, 0.5), (0, 2, -0.4), (1, 3, 0.7), (2, 3, 0.3), (1, 4, 0.6), (2, 4, -0.5), (3, 4, 0.4))


class TestDecisionPath:
    """ci_holds decides most statements from the Schur residual; whatever
    path it takes, the verdict and the witness are those of the minor
    definition."""

    CHANGES = ("none", "total", "partial", "row", "column", "additive", "boundary")

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 10),
        beta_max=st.sampled_from([0.5, 1.0, 2.0]),
        scale=st.integers(-3, 6).map(lambda e: 10.0**e),
        rel=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
        change=st.sampled_from(CHANGES),
        delta=st.floats(0.8, 1.25),
        ratio=st.sampled_from([0.5, 0.99, 1.01, 2.0]),
    )
    def test_verdicts_match_minor_definition(self, seed, n, beta_max, scale, rel, change, delta, ratio):
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, n, beta_max=beta_max)
        statements = dag_ci_statements(dag)
        if not statements:
            return
        _, cov = dag_to_gaussian(dag)
        cov = cov * scale
        conditional = [s for s in statements if s.given]
        target = conditional[int(rng.integers(len(conditional)))] if conditional else statements[0]
        rows, cols = target.block_rows, target.block_cols
        i, j = int(rng.choice(rows)), int(rng.choice(cols))
        if change == "additive":
            cov = cov.copy()
            cov[i, j] *= delta
            cov[j, i] = cov[i, j]
        elif change == "boundary" and target.given:
            cov = _boundary_change(cov, target, rel, ratio)
        elif change in ("total", "partial", "row", "column"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    plan = build_plan(Variation(n, i, j, delta), Scheme(change), statements)
                except GsensError:
                    return
            cov = plan.apply(cov)
        tol = TolerancePolicy(rel)
        expected = [minor_witness(cov, s, tol) for s in statements]
        checks = [ci_holds(cov, s, tol) for s in statements]
        assert [c.holds for c in checks] == [w is None for w in expected]
        assert [c.witness for c in checks] == expected
        assert model_holds(cov, statements, tol).holds == all(w is None for w in expected)

    def test_singular_conditioning_block_falls_back(self, rng, monkeypatch):
        # a duplicated variable makes Sigma_CC singular, so no residual exists
        for _ in range(10):
            cov, statements = random_dag_with_statement(rng)
            stmt = next((s for s in statements if s.given), None)
            if stmt is None:
                continue
            n = cov.shape[0]
            dup = np.zeros((n + 1, n + 1))
            dup[:n, :n] = cov
            dup[n, :n] = dup[:n, n] = cov[stmt.given[0]]
            dup[n, n] = cov[stmt.given[0], stmt.given[0]]
            calls = []
            monkeypatch.setattr(cimodel, "iter_minors", lambda *a: calls.append(a) or iter_minors(*a))
            wide = CIStatement(stmt.left, stmt.right, stmt.given + (n,))
            got = ci_holds(dup, wide)
            assert calls, "a singular Sigma_CC must enumerate"
            assert got.holds == (minor_witness(dup, wide, DEFAULT_TOL) is None)
            monkeypatch.undo()
            broken = dup.copy()
            broken[stmt.left[0], stmt.right[0]] = broken[stmt.right[0], stmt.left[0]] = 5.0
            assert ci_holds(broken, wide).witness == minor_witness(broken, wide, DEFAULT_TOL)

    @pytest.mark.parametrize("scale", [1e100, 1e160])
    def test_huge_entries(self, scale):
        # the bound overflows; the statements must still get the definition's verdict
        _, cov = dag_to_gaussian(GaussianDag.from_edges(5, _DAG5_EDGES))
        cov = cov * scale
        for stmt in (CIStatement((4,), (0,), (1, 2, 3)), CIStatement((3,), (0,), (1, 2))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the enumeration itself overflows
                expected = minor_witness(cov, stmt, DEFAULT_TOL)
                got = ci_holds(cov, stmt)
                witness = got.witness
            assert got.holds == (expected is None)
            assert repr(witness) == repr(expected)  # the value may be NaN

    def test_confirmed_failure_reads_one_minor(self, sigma4, stmt4, monkeypatch):
        broken = sigma4.copy()
        broken[1, 0] = broken[0, 1] = 2.5
        calls = []
        monkeypatch.setattr(cimodel, "iter_minors", lambda *a: calls.append(a) or iter_minors(*a))
        assert not model_holds(broken, [stmt4]).holds
        # the confirming minor: a stack of one 2 x 2 block
        assert len(calls) == 1 and calls[0][0].values.shape == (1, 2, 2)


def _statement_case(rng, k):
    """A statement A _||_ B | C with |C| = k - 1 on shuffled variables, and a
    covariance that satisfies it: X_C = W z, X_A = F_A X_C + e_A and
    X_B = F_B X_C + e_B, scaled by a random power of ten."""
    nc, na, nb = k - 1, int(rng.integers(1, 3)), int(rng.integers(1, 3))
    w = rng.normal(size=(nc, nc))
    loads = np.zeros((na + nb + nc, nc + na + nb))
    loads[:na, :nc] = rng.normal(size=(na, nc)) @ w
    loads[na : na + nb, :nc] = rng.normal(size=(nb, nc)) @ w
    loads[na + nb :, :nc] = w
    loads[:na, nc : nc + na] = np.diag(rng.uniform(0.5, 1.5, na))
    loads[na : na + nb, nc + na :] = np.diag(rng.uniform(0.5, 1.5, nb))
    joint = loads @ loads.T * 10.0 ** rng.uniform(-3, 3)
    order = rng.permutation(na + nb + nc)
    cov = np.empty_like(joint)
    cov[np.ix_(order, order)] = (joint + joint.T) / 2
    stmt = CIStatement(tuple(order[:na]), tuple(order[na : na + nb]), tuple(order[na + nb :]))
    return stmt, cov


def _variants(rng, stmt, cov):
    """(matrix, uncovered) pairs: cov, standard changes in A x B, A x C and
    C x C, and a change in A x B scaled to the largest doubles, whose bound
    overflows; then, uncovered by any certificate, a singular Sigma_CC and
    NaN and inf entries."""
    a, b, c = stmt.left, stmt.right, stmt.given

    def changed(i, j, value):
        out = cov.copy()
        out[i, j] = out[j, i] = value
        return out

    def scaled(i, j):
        return changed(i, j, cov[i, j] * rng.uniform(0.5, 1.5))

    pick = lambda s: int(rng.choice(s))  # noqa: E731
    out = [(cov, False), (scaled(pick(a), pick(b)), False)]
    out.append((out[-1][0] / np.abs(cov).max() * 1.5e308, False))
    if c:
        out += [(scaled(pick(a), pick(c)), False), (scaled(pick(c), pick(c)), False)]
        singular = changed(c[0], c[0], 0.0)
        if len(c) > 1:
            singular = cov.copy()
            singular[c[1], :] = singular[c[0], :]
            singular[:, c[1]] = singular[:, c[0]]
        out += [(singular, True), (changed(pick(c), pick(c), np.nan), True)]
    out += [(changed(pick(a), pick(b), np.nan), True), (changed(pick(a), pick(b + c), np.inf), True)]
    return out


class TestDecideStack:
    """Steps 1-3 on a stack give the definition's verdict (every minor
    enumerated) on every matrix they decide, leave undecided every matrix no
    certificate covers, and warn nowhere."""

    @pytest.mark.parametrize("rel", [1e-9, 1e-30])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_verdicts_match_the_definition(self, k, rel):
        rng = np.random.default_rng(1000 * k + int(rel == 1e-9))
        tol = TolerancePolicy(rel)
        outcomes = set()
        for _ in range(6):
            stmt, cov = _statement_case(rng, k)
            cases = _variants(rng, stmt, cov)
            stack = np.stack([m for m, _ in cases])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                table = cimodel.statement_table((stmt,), cov.shape[0])
                at = np.arange(len(stack))
                holds, decided = cimodel.decide_pairs(stack, table, at, 0 * at, tol)
            for (m, uncovered), h, d in zip(cases, holds.tolist(), decided.tolist()):
                if uncovered and stmt.given:
                    assert not d
                if d:
                    with np.errstate(all="ignore"):  # the scaled variant overflows
                        assert h == (minor_witness(m, stmt, tol) is None)
                    outcomes.add(h)
                else:
                    assert not h
        assert outcomes == ({True, False} if rel == 1e-9 else {False} if k > 1 else {True, False})

    @pytest.mark.parametrize("k", range(1, 7))
    def test_confirming_minors_are_iter_minors_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        stmt, cov = _statement_case(rng, k)
        noise = rng.normal(size=(40,) + cov.shape) * 10.0 ** rng.uniform(-4, 4, size=(40, 1, 1))
        stack = cov + noise + np.swapaxes(noise, 1, 2)
        residual = rng.normal(size=(40, len(stmt.left), len(stmt.right)))
        group = cimodel.statement_table((stmt,), cov.shape[0]).groups[0]
        at = np.arange(len(stack))
        values, scales = cimodel._confirm(stack, group, 0 * at, at, residual)
        for m, r, value, scale in zip(stack, residual, values, scales):
            i, j = np.unravel_index(np.argmax(np.abs(r)), r.shape)
            rows = tuple(sorted(stmt.given + (stmt.left[i],)))
            cols = tuple(sorted(stmt.given + (stmt.right[j],)))
            minor = next(iter_minors(Block(rows, cols, m[np.ix_(rows, cols)]), k))
            assert np.float64(value).tobytes() == np.float64(minor.value).tobytes()
            assert np.float64(scale).tobytes() == np.float64(minor.scale).tobytes()


def _grouped_case(rng):
    """A stack of matrices and statements for the grouped evaluator: a
    random DAG's local Markov statements with |C| <= 5 (and each with its
    sides swapped, so A has several variables), random statements with
    |C| = 0...5 that mostly fail, on the DAG's covariance with its variables
    rescaled by 10^U(-3, 3); then copies with a NaN entry, an inf entry and
    one variable an exact copy of another, so that every Sigma_CC holding
    both is exactly singular."""
    n = int(rng.integers(6, 10))
    dag = random_dag(rng, n, edge_prob=float(rng.uniform(0.3, 0.7)), beta_max=1.5)
    _, cov = dag_to_gaussian(dag)
    scale = 10.0 ** rng.uniform(-3, 3, size=n)
    cov = cov * np.outer(scale, scale)
    held = [s for s in dag_ci_statements(dag) if len(s.given) <= 5 and len(s.right) <= 4]
    statements = held + [CIStatement(s.right, s.left, s.given) for s in held[:3]]
    for size in rng.permutation(6).tolist():
        perm = rng.permutation(n).tolist()
        if size + 2 <= n:
            na = int(rng.integers(1, 3)) if size + 3 <= n else 1
            nb = 1 + int(size + na + 1 < n and rng.random() < 0.5)
            statements.append(CIStatement(perm[:na], perm[na : na + nb], perm[na + nb : na + nb + size]))
    i, j = rng.choice(n, size=2, replace=False).tolist()
    nan, inf, copy = cov.copy(), cov.copy(), cov.copy()
    nan[i, j] = nan[j, i] = np.nan
    inf[i, i] = np.inf
    copy[j, :], copy[:, j] = copy[i, :], copy[:, i]
    copy[j, j] = copy[i, i]
    return np.stack([cov, nan, inf, copy]), statements


class TestGroupedEvaluator:
    """One pass per |C| group over any (matrix, statement) pairs gives the
    per-statement minor definition's verdicts wherever it decides, and the
    checks built on it give them everywhere."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rel=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
    def test_verdicts_match_the_per_statement_definition(self, seed, rel):
        rng = np.random.default_rng(seed)
        stack, statements = _grouped_case(rng)
        tol = TolerancePolicy(rel)
        table = cimodel.statement_table(tuple(statements), stack.shape[-1])
        # every pair, in a shuffled order, and some pairs twice
        at, which = np.divmod(rng.permutation(len(stack) * len(statements)), len(statements))
        at, which = np.concatenate([at, at[:5]]), np.concatenate([which, which[:5]])
        with np.errstate(all="ignore"):
            expected = [[minor_witness(m, s, tol) for s in statements] for m in stack]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                holds, decided = cimodel.decide_pairs(stack, table, at, which, tol)
            for a, w, h, d in zip(at.tolist(), which.tolist(), holds.tolist(), decided.tolist()):
                if d:
                    assert h == (expected[a][w] is None), (a, statements[w])
                else:
                    assert not h
            for m, want in zip(stack, expected):
                checks = model_holds(m, statements, tol).checks
                assert [c.holds for c in checks] == [w is None for w in want]
                assert [repr(c.witness) for c in checks] == [repr(w) for w in want]  # NaN values
                failing = next((k for k, w in enumerate(want) if w is not None), None)
                if failing is None:
                    assert cimodel.require_model(m, statements, tol, None) is None
                else:
                    with pytest.raises(ModelPreconditionError, match=f"statement {failing + 1} fails with "):
                        cimodel.require_model(m, statements, tol, None)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 9),
        values=st.lists(
            st.tuples(
                st.floats(min_value=0.0)
                | st.sampled_from([float("nan"), float("inf")])
                | st.integers(-320, 308).map(lambda e: 10.0**e),
                st.floats(min_value=0.0)
                | st.sampled_from([float("nan"), float("inf")])
                | st.integers(-320, 308).map(lambda e: 10.0**e),
            ),
            max_size=20,
        ),
        near=st.lists(st.tuples(st.floats(0.25, 2.0), st.floats(1e-3, 1e3)), max_size=10),
        rel=st.sampled_from([0.0, 1e-300, 1e-12, 1e-9, 1e-6, 1.0, 1e300]) | st.floats(0.0, 1.0),
    )
    @example(k=4, values=[(1e200, 1e200), (0.0, 1e308), (1e-300, 1.7e308), (float("nan"), 1.0)], near=[], rel=1e-9)
    def test_vectorised_certified_is_the_scalar_one(self, k, values, near, rel):
        # near: an s whose bound is about ratio times the tolerance, so that
        # both sides of the limit are hit
        scale = (1 + 1000 * k * (k + 2) * 2.0**-53) * k ** ((k + 2) / 2)
        for ratio, mu in near:
            d = k * 2.0**-53 * 2**k * mu if k >= 4 else 0.0
            values = values + [(max(0.0, ratio * rel / (scale * (mu + d) ** (k - 1)) - d), mu)]
        # numpy's pow and the C library's may round the bound's power
        # differently in its last bit; wherever one float of that power does
        # not decide the scalar verdict, the two agree
        s, mu = np.array(values, dtype=float).reshape(-1, 2).T
        with np.errstate(all="ignore"):
            got = cimodel._certified(k, s, mu, rel).tolist()
        for (a, b), verdict in zip(values, got):
            want = certified_scalar(k, a, b, rel)
            if certified_scalar(k, a, b, rel, -1) == certified_scalar(k, a, b, rel, 1):
                assert verdict == want, (k, a, b, rel)


def _scaled_dag_model(n: int, seed: int) -> dict:
    """Model file of a DAG whose vertex k has 1 + k % 3 parents and
    coefficients scaled by 1/sqrt(parents), so variances stay of order one."""
    rng = np.random.default_rng(seed)
    names = [f"X{k + 1}" for k in range(n)]
    edges = []
    for k in range(1, n):
        count = min(k, 1 + k % 3)
        for p in rng.choice(k, size=count, replace=False):
            beta = float(rng.uniform(0.3, 0.9)) / count**0.5 * float(rng.choice([-1.0, 1.0]))
            edges.append({"from": names[p], "to": names[k], "beta": beta})
    return {"variables": names, "dag": {"order": names, "edges": edges}}


@pytest.mark.parametrize("n", [40, 100])
def test_large_dag_checks_without_enumerating(n, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("enumerated minors")

    path = tmp_path / "dag.json"
    path.write_text(json.dumps(_scaled_dag_model(n, seed=n)))
    monkeypatch.setattr(cimodel, "iter_minors", refuse)
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) >= n - 5 and all(line.startswith("ok ") for line in out)
