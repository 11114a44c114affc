import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STMT5_A, random_dag, random_dag_with_statement
from gsens import (
    DEFAULT_TOL,
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
    nonempty_conditioning,
    statement_block,
    submatrix,
)
from gsens import cimodel
from gsens.cli import main


class TestCIStatement:
    def test_sets_are_normalized(self):
        s = CIStatement(left=(3, 1), right=(0,), given=(2,))
        assert s.left == (1, 3)
        assert s.block_rows == (1, 2, 3) and s.block_cols == (0, 2)
        assert s.minor_order == 2

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
            reduced = model_holds(cov, nonempty_conditioning(statements))
            marginals_ok = all(
                ci_holds(cov, s).holds for s in statements if not s.given
            )
            assert full.holds == (reduced.holds and marginals_ok)


class TestNonemptyConditioning:
    def test_mixed(self):
        marginal = CIStatement(left=(0,), right=(1,))
        conditional = CIStatement(left=(2,), right=(3,), given=(4,))
        assert nonempty_conditioning([marginal, conditional]) == (conditional,)

    def test_all_marginal(self):
        assert nonempty_conditioning([CIStatement(left=(0,), right=(1,))]) == ()

    def test_all_conditional_unchanged(self, stmt4):
        assert nonempty_conditioning([stmt4, STMT5_A]) == (stmt4, STMT5_A)


def minor_witness(cov, stmt, tol):
    """Reference verdict: the definition itself, every minor enumerated.
    Returns the first non-vanishing minor, or None when the statement holds."""
    block = statement_block(np.asarray(cov, dtype=float), stmt)
    return next((m for m in iter_minors(block, stmt.minor_order) if not tol.minor_is_zero(m)), None)


def _boundary_change(cov, stmt, rel, ratio):
    """cov with the (a, b) entry of stmt shifted so that the minor on rows
    {a}+C and columns {b}+C is about ratio times its tolerance."""
    a, b = stmt.left[0], stmt.right[0]
    rows = tuple(sorted(stmt.given + (a,)))
    cols = tuple(sorted(stmt.given + (b,)))
    minor = next(iter_minors(submatrix(cov, rows, cols), stmt.minor_order))
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
                    plan = build_plan(Variation(n, ((i, j, delta),)), Scheme(change), statements)
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
        assert len(calls) == 1 and calls[0][0].values.shape == (2, 2)


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
