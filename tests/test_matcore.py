import numpy as np
import pytest

from gsens import (
    Block,
    CIStatement,
    Minor,
    SingularMatrixError,
    TolerancePolicy,
    inverse,
    iter_minors,
    statement_block,
)
from gsens.matcore import check_symmetric, is_psd, minor_parts


def _block(m, rows, cols):
    """The Block of m on the given rows and columns."""
    return Block(tuple(rows), tuple(cols), m[np.ix_(rows, cols)])


class TestSubmatrix:
    """statement_block, the submatrix on rows A+C and columns B+C."""

    def test_statement_block(self, sigma4, stmt4):
        # Y3 _||_ Y1 | Y2: rows {2,3} x cols {1,2}, 1-based
        block = statement_block(sigma4, stmt4)
        np.testing.assert_array_equal(block.values, [[2, 5], [2, 5]])
        assert block.rows == (1, 2) and block.cols == (0, 1)

    def test_read_off_by_hand(self, sigma4):
        # {Y2,Y4} _||_ {Y1,Y3}: rows {2,4} x cols {1,3}; row 4 of the matrix is (7,17,19,63)
        block = statement_block(sigma4, CIStatement(left=(3, 1), right=(2, 0)))
        np.testing.assert_array_equal(block.values, [[2, 5], [7, 19]])
        assert block.rows == (1, 3) and block.cols == (0, 2)

    def test_out_of_range(self, sigma4):
        with pytest.raises(IndexError, match="statement index 5 out of range for dimension 4"):
            statement_block(sigma4, CIStatement(left=(1,), right=(4,), given=(0,)))


def minor_values(block, k):
    return [m.value for m in iter_minors(block, k)]


class TestMinors:
    def test_three_minors_in_order(self, rng):
        # block rows {2,4} x cols {1,3,4} of a random symmetric 4x4
        s = rng.uniform(-3, 3, size=(4, 4))
        s = (s + s.T) / 2
        block = _block(s, [1, 3], [0, 2, 3])
        got = minor_values(block, 2)
        expected = [
            s[1, 0] * s[3, 2] - s[3, 0] * s[1, 2],
            s[1, 0] * s[3, 3] - s[3, 0] * s[1, 3],
            s[1, 2] * s[3, 3] - s[3, 2] * s[1, 3],
        ]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_order_one_minors_are_entries(self, sigma4):
        block = _block(sigma4, [0, 2], [1, 3])
        assert minor_values(block, 1) == [2.0, 7.0, 5.0, 19.0]

    def test_vanishing_minor_is_exactly_zero(self, sigma4):
        block = _block(sigma4, [1, 2], [0, 1])
        assert minor_values(block, 2) == [0.0]

    def test_rank_one_block_gives_zero_minors(self):
        row = np.array([1.0, 2.0, 3.0, 4.0])
        m = np.outer([2.0, 3.0, 5.0], row)
        block = Block((0, 1, 2), (0, 1, 2, 3), m)
        for k in (2, 3):
            for minor in iter_minors(block, k):
                assert minor.value == pytest.approx(0.0, abs=1e-12)

    def test_minor_order_too_large(self, sigma4):
        block = _block(sigma4, [0, 1], [2])
        with pytest.raises(ValueError):
            minor_values(block, 2)

    def test_scale_is_the_product_of_row_maxima(self):
        m = np.array([[1.0, -5.0], [2.0, 3.0]])
        (minor,) = iter_minors(Block((0, 1), (0, 1), m), 2)
        assert (minor.value, minor.scale) == (13.0, 15.0)
        values, scales = minor_parts(np.stack([m, -m.T]))
        assert values.tolist() == [13.0, 13.0] and scales.tolist() == [15.0, 10.0]

    def test_minor_carries_original_indices(self, sigma4):
        block = _block(sigma4, [1, 2], [0, 1])
        (minor,) = iter_minors(block, 2)
        assert minor.rows == (1, 2) and minor.cols == (0, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_stack_gives_every_blocks_minors_in_stack_order(self, rng, k):
        stack = rng.normal(size=(3, 4, 5)) * 10.0 ** rng.uniform(-3, 3, size=(3, 1, 1))
        rows, cols = (0, 2, 5, 6), (1, 3, 4, 6, 8)
        got = list(iter_minors(Block(rows, cols, stack), k))
        per_block = [list(iter_minors(Block(rows, cols, values), k)) for values in stack]
        # bitwise equal, each pair of subsets giving its minor of every block in turn
        assert got == [minor for minors in zip(*per_block) for minor in minors]

    def test_stack_shape_must_match_the_indices(self):
        with pytest.raises(ValueError):
            Block((0, 1), (0, 1), np.zeros((3, 2, 3)))
        with pytest.raises(ValueError):
            Block((0,), (0,), np.zeros(1))


class TestDetInverse:
    def test_scalar_inverse(self):
        np.testing.assert_array_equal(inverse([[5.0]]), [[0.2]])

    def test_inverse_times_matrix_is_identity(self, sigma4):
        residual = inverse(sigma4) @ sigma4 - np.eye(4)
        assert np.abs(residual).max() < 1e-9

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(np.ones((3, 3)))


class TestCheckSymmetric:
    def test_nan_mirrored_by_nan_is_symmetric(self):
        m = np.array([[1.0, np.nan], [np.nan, 1.0]])
        assert check_symmetric(m) is m

    def test_names_the_first_asymmetric_pair_past_a_nan_pair(self):
        m = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError) as exc:
            check_symmetric(m, "m")
        assert str(exc.value) == "m is not symmetric: entry (1,2) = 1.0 but (2,1) = nan"


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

    def test_vanishes_is_minor_is_zero_elementwise(self):
        tol = TolerancePolicy(1e-9)
        values = np.array([1e-3, 1e-3, 5e-10, 2e-9, np.nan, 0.0, np.inf, 1.0])
        scales = np.array([1e7, 1.0, np.nan, 1.0, 1.0, np.nan, np.inf, np.inf])
        expected = [tol.minor_is_zero(Minor((0,), (1,), v, s)) for v, s in zip(values, scales)]
        assert expected == [True, False, True, False, False, True, True, True]
        assert tol.vanishes(values, scales).tolist() == expected

    def test_survives_huge_covariances(self):
        # product of row maxima for a 2x2 block drawn from the cachexia scale
        tol = TolerancePolicy(1e-9)
        minor = Minor((0,), (1,), value=50.0, scale=3.05e6 * 9.8e4)
        assert tol.minor_is_zero(minor)
