"""Dense symmetric-matrix kernel.

Blocks, minor enumeration, the reciprocal-condition rule, inverses and
positive-semidefiniteness. Everything here is a pure function on dense arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import SingularMatrixError

# Reciprocal condition estimate below this means "singular" (check_invertible).
RCOND_LIMIT = 1e-12

# Default scale-relative tolerance used for minor vanishing and is_psd.
DEFAULT_REL_TOL = 1e-9


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a square 2-D float64 array (copy)."""
    m = np.array(values, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    return m


def check_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Require exact (bitwise) symmetry; a NaN mirrored by a NaN counts as
    symmetric, so the checks downstream decide what a non-finite matrix
    means."""
    # exact equality first: it accepts only what the NaN-aware test accepts
    if not (m == m.T).all() and not np.array_equal(m, m.T, equal_nan=True):
        i, j = np.argwhere((m != m.T) & ~(np.isnan(m) & np.isnan(m.T)))[0]
        raise ValueError(
            f"{name} is not symmetric: entry ({i + 1},{j + 1}) = {float(m[i, j])!r} "
            f"but ({j + 1},{i + 1}) = {float(m[j, i])!r}"
        )
    return m


@dataclass(frozen=True, eq=False)
class Block:
    """A rectangular submatrix together with the original indices it came
    from, or a stack of such submatrices (..., rows, cols) sharing them."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim < 2 or self.values.shape[-2:] != (len(self.rows), len(self.cols)):
            raise ValueError(
                f"block values have shape {self.values.shape}, expected "
                f"({len(self.rows)}, {len(self.cols)})"
            )


@dataclass(frozen=True)
class Minor:
    """One k x k minor of a block: original indices, value and a size scale.

    scale is the product over rows of the max-abs entry of the k x k
    submatrix; the vanishing test is |value| <= rel * max(1, scale).
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    value: float
    scale: float

    def describe(self, names: Sequence[str] | None = None) -> str:
        if names is not None:
            r = ",".join(names[i] for i in self.rows)
            c = ",".join(names[j] for j in self.cols)
        else:
            r = ",".join(str(i + 1) for i in self.rows)
            c = ",".join(str(j + 1) for j in self.cols)
        return f"minor rows {{{r}}} x cols {{{c}}} = {self.value:.6g}"


def _small_det(s: np.ndarray):
    # Direct cofactor formulas up to 3x3: exact for small-integer entries,
    # unlike LU which rounds e.g. det([[2.5,5],[2,5]]) to 2.4999999999999996.
    # On a stack (m, k, k) each matrix's, by the same operations: t[j, i] is
    # entry (i, j) of the matrix or of every matrix in the stack.
    k = s.shape[-1]
    if k > 3:
        return np.linalg.det(s)
    t = s.T
    if k == 1:
        return t[0, 0]
    if k == 2:
        return t[0, 0] * t[1, 1] - t[1, 0] * t[0, 1]
    return (
        t[0, 0] * (t[1, 1] * t[2, 2] - t[2, 1] * t[1, 2])
        - t[1, 0] * (t[0, 1] * t[2, 2] - t[2, 1] * t[0, 2])
        + t[2, 0] * (t[0, 1] * t[1, 2] - t[1, 1] * t[0, 2])
    )


def minor_parts(subs: np.ndarray):
    """Value and scale of a k x k submatrix, or of each matrix of a stack
    (m, k, k): its determinant (cofactor formulas up to k = 3, LU above) and
    the product, left to right, of its row maxima in magnitude."""
    return _small_det(subs), np.abs(subs).max(axis=-1).prod(axis=-1)


def iter_minors(block: Block, k: int) -> Iterator[Minor]:
    """Every k x k minor of the block, row subsets outer, column subsets inner;
    of a stack of blocks, each pair of subsets gives its minor of every block
    in stack order, evaluated together.

    Subsets are enumerated in lexicographic order of index positions, so the
    iteration order is deterministic and reproducible across runs.
    """
    nr, nc = block.values.shape[-2:]
    if k < 1 or k > min(nr, nc):
        raise ValueError(f"minor order {k} does not fit a {nr}x{nc} block")
    for ri in itertools.combinations(range(nr), k):
        for ci in itertools.combinations(range(nc), k):
            value, scale = minor_parts(block.values.take(ri, axis=-2).take(ci, axis=-1))
            rows = tuple(block.rows[i] for i in ri)
            cols = tuple(block.cols[j] for j in ci)
            for v, s in zip(value.reshape(-1).tolist(), scale.reshape(-1).tolist()):
                yield Minor(rows=rows, cols=cols, value=v, scale=s)


def rcond(a: np.ndarray):
    """Reciprocal 2-norm condition number, 1 / numpy.linalg.cond(a), of a
    matrix (a float) or of each matrix of a stack (m, k, k) (an array); 0.0
    where the matrix is singular."""
    s = np.linalg.svd(a, compute_uv=False)
    # s_min = 0 gives cond = inf and so 0.0; fmax maps a NaN (0/0, NaN entries) to 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.fmax(1.0 / (s[..., 0] / s[..., -1]), 0.0)
    return float(out) if out.ndim == 0 else out


def check_invertible(a: np.ndarray) -> np.ndarray:
    """Require a reciprocal condition estimate of at least RCOND_LIMIT;
    raises SingularMatrixError otherwise."""
    estimate = rcond(a)
    if estimate < RCOND_LIMIT:
        raise SingularMatrixError(
            f"matrix is numerically singular (reciprocal condition estimate "
            f"{estimate:.3g} < {RCOND_LIMIT:g})"
        )
    return a


def inverse(m) -> np.ndarray:
    """Inverse of a symmetric matrix that passes check_invertible."""
    inv = np.linalg.inv(check_invertible(check_symmetric(as_matrix(m))))
    # inverse of a symmetric matrix is symmetric; average out LU round-off
    return (inv + inv.T) / 2.0


# Tests use this as an oracle, and the benchmark's per-layer trace binds it.
def is_psd(m, tol: float = DEFAULT_REL_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -tol * max(1, max|entry|)."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    a = check_symmetric(as_matrix(m))
    return float(np.linalg.eigvalsh(a)[0]) >= -tol * max(1.0, float(np.abs(a).max()))


@dataclass(frozen=True)
class TolerancePolicy:
    """Scale-relative vanishing test for minors.

    A minor m of a k x k submatrix S counts as zero iff
    |m| <= rel * max(1, product over rows of max|entry of S|); the product
    tracks the determinant's own magnitude, so the test survives covariances
    in the millions as well as unit-scale ones.
    """

    rel: float = DEFAULT_REL_TOL

    def __post_init__(self):
        # with rel = inf every minor vanishes; with NaN or rel < 0 none does
        if not (math.isfinite(self.rel) and self.rel >= 0):
            raise ValueError(f"tolerance must be a finite number >= 0, got {self.rel!r}")

    def vanishes(self, value, scale):
        """The test on a minor's value and scale, elementwise on floats or
        arrays (a NaN scale counts as 1)."""
        return np.abs(value) <= self.rel * np.fmax(1.0, scale)

    def minor_is_zero(self, minor: Minor) -> bool:
        return bool(self.vanishes(minor.value, minor.scale))


DEFAULT_TOL = TolerancePolicy()
