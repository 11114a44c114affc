import numpy as np
import pytest

from conftest import SIGMA4, random_dag
from gsens import (
    Evidence,
    GsensError,
    SingularMatrixError,
    condition,
    dag_to_gaussian,
)
from gsens.matcore import is_psd


def _direct_moments(mean, cov, obs_idx, out_idx, y):
    """Independent oracle: the conditional-moment formula written out for an
    explicit index split, no shared code with the implementation."""
    s_oe = cov[np.ix_(out_idx, obs_idx)]
    s_ee_inv = np.linalg.inv(cov[np.ix_(obs_idx, obs_idx)])
    mu = mean[out_idx] + s_oe @ s_ee_inv @ (y - mean[obs_idx])
    s = cov[np.ix_(out_idx, out_idx)] - s_oe @ s_ee_inv @ cov[np.ix_(obs_idx, out_idx)]
    return mu, s


class TestEvidence:
    def test_pairs_are_sorted_by_index(self):
        ev = Evidence.from_pairs([(2, 5.0), (0, 3.0)])
        assert ev.indices == (0, 2)
        np.testing.assert_array_equal(ev.values, [3.0, 5.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Evidence((), np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Evidence((0, 1), np.array([1.0]))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Evidence((0, 0), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(GsensError, match="variable 3 is .*, not finite"):
            Evidence.from_pairs([(0, 1.0), (2, value)])


class TestCondition:
    def test_two_variable_case_by_hand(self):
        mean, cov = condition(np.zeros(2), [[1.0, 2.0], [2.0, 5.0]], Evidence((1,), [1.0]))
        assert mean[0] == pytest.approx(0.4, abs=1e-12)
        assert cov[0, 0] == pytest.approx(0.2, abs=1e-12)

    def test_diagonal_covariance_unaffected(self):
        cov = np.diag([1.0, 2.0, 3.0])
        mean_c, cov_c = condition(np.zeros(3), cov, Evidence((1,), [4.0]))
        np.testing.assert_array_equal(mean_c, [0.0, 0.0])
        np.testing.assert_array_equal(cov_c, np.diag([1.0, 3.0]))

    def test_matches_direct_formula_on_toy_matrix(self, sigma4):
        ev = Evidence((3,), [2.0])
        mean_c, cov_c = condition(np.zeros(4), sigma4, ev)
        mu, s = _direct_moments(np.zeros(4), sigma4, [3], [0, 1, 2], np.array([2.0]))
        np.testing.assert_allclose(mean_c, mu, rtol=1e-12)
        np.testing.assert_allclose(cov_c, s, rtol=1e-12)

    def test_covariance_does_not_depend_on_observed_values(self, rng, sigma4):
        ev1 = Evidence((1, 3), rng.uniform(-5, 5, size=2))
        ev2 = Evidence((1, 3), rng.uniform(-5, 5, size=2))
        _, cov1 = condition(np.zeros(4), sigma4, ev1)
        _, cov2 = condition(np.zeros(4), sigma4, ev2)
        np.testing.assert_array_equal(cov1, cov2)

    def test_permutation_equivariance(self, rng):
        dag = random_dag(rng, n=5)
        mean = rng.uniform(-1, 1, size=5)
        _, cov = dag_to_gaussian(dag)
        perm = rng.permutation(5)
        cov_p = cov[np.ix_(perm, perm)]
        mean_p = mean[perm]
        ev = Evidence((1, 4), [0.3, -0.7])
        mean_c, cov_c = condition(mean, cov, ev)
        # the same evidence expressed in permuted coordinates
        inv = np.argsort(perm)
        ev_p = Evidence.from_pairs([(int(inv[i]), v) for i, v in zip(ev.indices, ev.values)])
        mean_cp, cov_cp = condition(mean_p, cov_p, ev_p)
        out = [k for k in range(5) if k not in ev.indices]
        out_p = [k for k in range(5) if k not in ev_p.indices]
        order = np.argsort([out.index(int(perm[k])) for k in out_p])
        np.testing.assert_allclose(mean_cp[order], mean_c, rtol=1e-12)
        np.testing.assert_allclose(cov_cp[np.ix_(order, order)], cov_c, rtol=1e-12)

    def test_conditional_covariance_is_dominated(self, rng):
        for _ in range(10):
            dag = random_dag(rng, n=5)
            _, cov = dag_to_gaussian(dag)
            ev = Evidence((0, 2), [1.0, -1.0])
            _, cov_c = condition(np.zeros(5), cov, ev)
            out = [1, 3, 4]
            assert is_psd(cov[np.ix_(out, out)] - cov_c, tol=1e-9)
            assert is_psd(cov_c, tol=1e-9)

    def test_singular_evidence_block(self):
        cov = np.ones((3, 3)) + np.diag([1e-15, 1e-15, 1.0])
        with pytest.raises(SingularMatrixError):
            condition(np.zeros(3), (cov + cov.T) / 2, Evidence((0, 1), [1.0, 1.0]))

    def test_evidence_for_every_variable_rejected(self):
        with pytest.raises(ValueError):
            condition(np.zeros(2), np.eye(2), Evidence((0, 1), [1.0, 2.0]))

