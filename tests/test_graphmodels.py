import numpy as np
import pytest

from conftest import SIGMA4, random_dag
from gsens import (
    CIStatement,
    GaussianDag,
    dag_ci_statements,
    dag_to_gaussian,
    inverse,
    model_holds,
)
from gsens.graphmodels import GraphModelError
from gsens.matcore import is_psd


class TestDagToGaussian:
    def test_toy_parameters_reproduce_matrix_exactly(self, dag4):
        mean, cov = dag_to_gaussian(dag4)
        assert np.array_equal(cov, SIGMA4)
        assert np.array_equal(mean, np.zeros(4))

    def test_no_edges_gives_identity(self):
        mean, cov = dag_to_gaussian(GaussianDag.from_edges(3, []))
        np.testing.assert_array_equal(cov, np.eye(3))
        np.testing.assert_array_equal(mean, np.zeros(3))

    def test_two_variable_chain_by_hand(self):
        _, cov = dag_to_gaussian(GaussianDag.from_edges(2, [(0, 1, 2.0)]))
        np.testing.assert_array_equal(cov, [[1, 2], [2, 5]])

    def test_intercepts_propagate(self):
        mean, _ = dag_to_gaussian(
            GaussianDag.from_edges(2, [(0, 1, 2.0)], intercepts=(1.0, 1.0))
        )
        np.testing.assert_array_equal(mean, [1.0, 3.0])

    def test_output_symmetric_and_positive_definite(self, rng):
        for _ in range(25):
            dag = random_dag(rng)
            _, cov = dag_to_gaussian(dag)
            assert np.array_equal(cov, cov.T)
            scale = max(1.0, np.abs(cov).max())
            assert np.linalg.eigvalsh(cov)[0] > -1e-10 * scale
            assert is_psd(cov)

    def test_permuted_order(self):
        # same chain declared with vertices relabeled: 1 -> 0 with beta 2
        dag = GaussianDag.from_edges(2, [(1, 0, 2.0)], order=(1, 0))
        _, cov = dag_to_gaussian(dag)
        np.testing.assert_array_equal(cov, [[5, 2], [2, 1]])


class TestDagValidation:
    def test_edge_against_order_rejected(self):
        with pytest.raises(GraphModelError):
            GaussianDag.from_edges(2, [(1, 0, 1.0)])

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(GraphModelError):
            GaussianDag.from_edges(2, [], cond_vars=(1.0, 0.0))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphModelError):
            GaussianDag.from_edges(3, [(0, 1, 1.0), (0, 1, 2.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphModelError):
            GaussianDag.from_edges(2, [(0, 0, 1.0)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(GraphModelError, match="coefficient is"):
            GaussianDag.from_edges(2, [(0, 1, bad)])
        with pytest.raises(GraphModelError, match="intercept of vertex 2"):
            GaussianDag.from_edges(2, [], intercepts=(0.0, bad))
        with pytest.raises(GraphModelError, match="conditional variance of vertex 1"):
            GaussianDag.from_edges(2, [], cond_vars=(bad, 1.0))


class TestDagCiStatements:
    def test_chain(self):
        dag = GaussianDag.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        statements = dag_ci_statements(dag)
        assert statements == (CIStatement(left=(2,), right=(0,), given=(1,)),)

    def test_toy_dag_has_single_statement(self, dag4):
        statements = dag_ci_statements(dag4)
        assert statements == (CIStatement(left=(2,), right=(0,), given=(1,)),)

    def test_complete_dag_has_none(self):
        edges = [(p, c, 1.0) for c in range(4) for p in range(c)]
        assert dag_ci_statements(GaussianDag.from_edges(4, edges)) == ()

    def test_statements_follow_each_vertex_parents(self, rng):
        # permuted topological orders, edges listed in random order
        for _ in range(25):
            n = int(rng.integers(2, 8))
            order = [int(v) for v in rng.permutation(n)]
            edges = [(order[a], order[b], 1.0) for b in range(n) for a in range(b) if rng.random() < 0.5]
            dag = GaussianDag.from_edges(n, [edges[k] for k in rng.permutation(len(edges))], order=order)
            expected = []
            for k, vertex in enumerate(order):
                indep = set(order[:k]) - set(dag.parents(vertex))
                if indep:
                    expected.append(CIStatement((vertex,), tuple(sorted(indep)), dag.parents(vertex)))
            assert dag_ci_statements(dag) == tuple(expected)

    def test_statements_hold_on_generated_covariance(self, rng):
        for _ in range(25):
            dag = random_dag(rng)
            _, cov = dag_to_gaussian(dag)
            assert model_holds(cov, dag_ci_statements(dag)).holds


def _pairwise(n, edges):
    """Pairwise Markov statements of an undirected graph: one per missing
    edge i-j, i _||_ j given every other vertex."""
    return [
        CIStatement(left=(i,), right=(j,), given=tuple(v for v in range(n) if v not in (i, j)))
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in edges
    ]


class TestUgCheck:
    """An undirected Gaussian graphical model is checked through its pairwise
    Markov statements, listed as ordinary CI statements."""

    def test_identity_matches_empty_graph(self):
        assert model_holds(np.eye(3), _pairwise(3, ())).holds

    def test_two_variable_edge(self):
        cov = np.array([[1.0, 2.0], [2.0, 5.0]])
        # precision [[5,-2],[-2,1]]: off-diagonal nonzero, edge required
        assert model_holds(cov, _pairwise(2, {(0, 1)})).holds
        res = model_holds(cov, _pairwise(2, ()))
        assert [k for k, _ in res.failures] == [0]

    def test_constructed_precision_zero_pattern(self):
        # build a covariance from a precision matrix with chosen zeros
        prec = np.array(
            [
                [2.0, 0.5, 0.0, 0.0],
                [0.5, 2.0, 0.5, 0.0],
                [0.0, 0.5, 2.0, 0.0],
                [0.0, 0.0, 0.0, 2.0],
            ]
        )
        cov = inverse(prec)
        assert model_holds(cov, _pairwise(4, {(0, 1), (1, 2)})).holds
        # dropping the (1,2) edge asserts a precision zero that is not there
        statements = _pairwise(4, {(0, 1)})
        failing = [statements[k] for k, _ in model_holds(cov, statements).failures]
        assert failing == [CIStatement(left=(1,), right=(2,), given=(0, 3))]

    def test_marginal_zero_is_not_a_precision_zero(self):
        # the control-group covariance has an exact zero at (B,GC), but its
        # precision entry there is nonzero: dropping the edge gets flagged
        from gsens import load_model
        from gsens.fixtures import fixture_path

        model = load_model(fixture_path("cachexia_control"))
        b, gc = model.index("B"), model.index("GC")
        assert model.covariance[b, gc] == 0.0
        edges = {(i, j) for i in range(6) for j in range(i + 1, 6) if (i, j) != (min(b, gc), max(b, gc))}
        assert not model_holds(model.covariance, _pairwise(6, edges)).holds
