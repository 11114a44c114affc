"""Dense symmetric-matrix kernel.

Submatrices, minor enumeration, the reciprocal-condition rule, inverses and
positive-semidefiniteness. Everything here is a pure function on dense arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
    """Require exact (bitwise) symmetry."""
    if not np.array_equal(m, m.T):
        i, j = np.argwhere(m != m.T)[0]
        raise ValueError(
            f"{name} is not symmetric: entry ({i + 1},{j + 1}) = {m[i, j]!r} "
            f"but ({j + 1},{i + 1}) = {m[j, i]!r}"
        )
    return m


def as_index_set(indices: Iterable[int], n: int, name: str = "index set") -> tuple[int, ...]:
    """Validate indices against dimension n; returns a sorted tuple."""
    idx = tuple(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise ValueError(f"{name} contains duplicates: {idx}")
    for i in idx:
        if not 0 <= i < n:
            raise IndexError(f"{name} index {i} out of range for dimension {n}")
    return tuple(sorted(idx))


@dataclass(frozen=True, eq=False)
class Block:
    """A rectangular submatrix together with the original indices it came from."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.rows), len(self.cols)):
            raise ValueError(
                f"block values have shape {self.values.shape}, expected "
                f"({len(self.rows)}, {len(self.cols)})"
            )


def submatrix(m: np.ndarray, rows: Sequence[int], cols: Sequence[int]) -> Block:
    """Block of m with the given (sorted) row and column indices."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    r = as_index_set(rows, n, "row index set")
    c = as_index_set(cols, m.shape[1], "column index set")
    return Block(r, c, m[np.ix_(r, c)])


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


def _small_det(s: np.ndarray) -> float:
    # Direct cofactor formulas up to 3x3: exact for small-integer entries,
    # unlike LU which rounds e.g. det([[2.5,5],[2,5]]) to 2.4999999999999996.
    k = s.shape[0]
    if k == 1:
        return float(s[0, 0])
    if k == 2:
        return float(s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0])
    if k == 3:
        return float(
            s[0, 0] * (s[1, 1] * s[2, 2] - s[1, 2] * s[2, 1])
            - s[0, 1] * (s[1, 0] * s[2, 2] - s[1, 2] * s[2, 0])
            + s[0, 2] * (s[1, 0] * s[2, 1] - s[1, 1] * s[2, 0])
        )
    return float(np.linalg.det(s))


def iter_minors(block: Block, k: int) -> Iterator[Minor]:
    """Every k x k minor of the block, row subsets outer, column subsets inner.

    Subsets are enumerated in lexicographic order of index positions, so the
    iteration order is deterministic and reproducible across runs.
    """
    nr, nc = block.values.shape
    if k < 1 or k > min(nr, nc):
        raise ValueError(f"minor order {k} does not fit a {nr}x{nc} block")
    for ri in itertools.combinations(range(nr), k):
        for ci in itertools.combinations(range(nc), k):
            sub = block.values[np.ix_(ri, ci)]
            scale = float(np.prod(np.abs(sub).max(axis=1)))
            yield Minor(
                rows=tuple(block.rows[i] for i in ri),
                cols=tuple(block.cols[j] for j in ci),
                value=_small_det(sub),
                scale=scale,
            )


def rcond(a: np.ndarray) -> float:
    """Reciprocal 2-norm condition number, 1 / numpy.linalg.cond(a); 0.0
    when the matrix is singular."""
    s = np.linalg.svd(a, compute_uv=False)
    if not s[-1] > 0:
        return 0.0
    cond = float(s[0]) / float(s[-1])
    return 1.0 / cond if math.isfinite(cond) else 0.0


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

    def minor_is_zero(self, minor: Minor) -> bool:
        return abs(minor.value) <= self.rel * max(1.0, minor.scale)


DEFAULT_TOL = TolerancePolicy()
