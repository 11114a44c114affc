import numpy as np
import pytest

from gsens import (
    Block,
    Minor,
    SingularMatrixError,
    TolerancePolicy,
    inverse,
    iter_minors,
    submatrix,
)
from gsens.matcore import is_psd


class TestSubmatrix:
    def test_statement_block(self, sigma4):
        # rows {2,3} x cols {1,2}, 1-based
        block = submatrix(sigma4, [1, 2], [0, 1])
        np.testing.assert_array_equal(block.values, [[2, 5], [2, 5]])
        assert block.rows == (1, 2) and block.cols == (0, 1)

    def test_full_selection_is_identity(self, sigma4):
        block = submatrix(sigma4, range(4), range(4))
        np.testing.assert_array_equal(block.values, sigma4)

    def test_read_off_by_hand(self, sigma4):
        # rows {2,4} x cols {1,3}: row 4 of the matrix is (7,17,19,63)
        block = submatrix(sigma4, [1, 3], [0, 2])
        np.testing.assert_array_equal(block.values, [[2, 5], [7, 19]])

    def test_out_of_range(self, sigma4):
        with pytest.raises(IndexError):
            submatrix(sigma4, [1, 4], [0])

    def test_duplicate_rejected(self, sigma4):
        with pytest.raises(ValueError):
            submatrix(sigma4, [1, 1], [0])


def minor_values(block, k):
    return [m.value for m in iter_minors(block, k)]


class TestMinors:
    def test_three_minors_in_order(self, rng):
        # block rows {2,4} x cols {1,3,4} of a random symmetric 4x4
        s = rng.uniform(-3, 3, size=(4, 4))
        s = (s + s.T) / 2
        block = submatrix(s, [1, 3], [0, 2, 3])
        got = minor_values(block, 2)
        expected = [
            s[1, 0] * s[3, 2] - s[3, 0] * s[1, 2],
            s[1, 0] * s[3, 3] - s[3, 0] * s[1, 3],
            s[1, 2] * s[3, 3] - s[3, 2] * s[1, 3],
        ]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_order_one_minors_are_entries(self, sigma4):
        block = submatrix(sigma4, [0, 2], [1, 3])
        assert minor_values(block, 1) == [2.0, 7.0, 5.0, 19.0]

    def test_vanishing_minor_is_exactly_zero(self, sigma4):
        block = submatrix(sigma4, [1, 2], [0, 1])
        assert minor_values(block, 2) == [0.0]

    def test_rank_one_block_gives_zero_minors(self):
        row = np.array([1.0, 2.0, 3.0, 4.0])
        m = np.outer([2.0, 3.0, 5.0], row)
        block = Block((0, 1, 2), (0, 1, 2, 3), m)
        for k in (2, 3):
            for minor in iter_minors(block, k):
                assert minor.value == pytest.approx(0.0, abs=1e-12)

    def test_minor_order_too_large(self, sigma4):
        block = submatrix(sigma4, [0, 1], [2])
        with pytest.raises(ValueError):
            minor_values(block, 2)

    def test_minor_carries_original_indices(self, sigma4):
        block = submatrix(sigma4, [1, 2], [0, 1])
        (minor,) = iter_minors(block, 2)
        assert minor.rows == (1, 2) and minor.cols == (0, 1)


class TestDetInverse:
    def test_scalar_inverse(self):
        np.testing.assert_array_equal(inverse([[5.0]]), [[0.2]])

    def test_inverse_times_matrix_is_identity(self, sigma4):
        residual = inverse(sigma4) @ sigma4 - np.eye(4)
        assert np.abs(residual).max() < 1e-9

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(np.ones((3, 3)))


class TestIsPsd:
    def test_fixture_matrix(self, sigma4):
        assert is_psd(sigma4)

    def test_indefinite(self):
        assert not is_psd([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3

    def test_zero_matrix_on_boundary(self):
        assert is_psd(np.zeros((3, 3)))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            is_psd(np.eye(2), tol=-1.0)


class TestTolerancePolicy:
    def test_scale_relative(self):
        tol = TolerancePolicy(1e-9)
        big = Minor((0,), (1,), value=1e-3, scale=1e7)
        small = Minor((0,), (1,), value=1e-3, scale=1.0)
        assert tol.minor_is_zero(big)
        assert not tol.minor_is_zero(small)

    def test_survives_huge_covariances(self):
        # product of row maxima for a 2x2 block drawn from the cachexia scale
        tol = TolerancePolicy(1e-9)
        minor = Minor((0,), (1,), value=50.0, scale=3.05e6 * 9.8e4)
        assert tol.minor_is_zero(minor)
