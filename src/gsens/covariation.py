"""Multiplicative variations, covariation schemes and model preservation.

A variation multiplies one covariance entry (and its mirror) by a nonzero
factor delta. A covariation scheme fills further entries so that every
vanishing minor of the model keeps vanishing: scaling whole rows (or
columns) of a statement's defining block scales each minor by a power of
the factor, which preserves zero. Four fill shapes are supported:

  total    fill the whole matrix
  partial  fill the statement block (rows x cols of the defining submatrix)
  row      fill rows E of the block, E a subset of the block rows
  column   fill columns F of the block, F a subset of the block columns

plus "none" (no covariation at all: the position alone). One builder makes
every partial, row and column fill; its block is the union of the blocks
of the statements it targets, and one statement is the one-element case.

A plan is its mask: where(M, delta, 1) for a 0/1 mask M that the scheme
fixes and delta does not touch: all of the matrix for total, the position
and its mirror for "none" (and for a position no statement block holds),
the fill for the rest. So a one-position plan is 1 + (delta - 1) M, its
change of Sigma is (delta - 1) (M o Sigma), and whether a scheme keeps the
model valid is decided on the sets E and F alone. The builder resolves that
delta-free fill (targets, block, E/F and mask) once per (position, scheme,
statements) and memoises it; every factor's plan then holds its Variation,
its scheme as built and the shared read-only mask, with its warnings and
any refused-set error issued on each build, and allocates nothing. A
plan's product, the Schur product of where(M, delta, 1) over its steps, is
derived on first read. A one-step product is symmetric and has no zero
entry by construction (M is symmetric, delta finite and nonzero); plans at
several positions compose by their Schur product, which compose checks.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cimodel import CIStatement, ModelCheck, model_holds, require_model
from .errors import FactorError, SchemeError
from .matcore import DEFAULT_TOL, TolerancePolicy, as_matrix, check_symmetric

SCHEME_KINDS = ("total", "partial", "row", "column", "none")


@dataclass(frozen=True)
class Scheme:
    """Covariation scheme request.

    subset is the row set E (kind "row") or column set F (kind "column");
    None means "use the smallest set valid for the varied position".
    statement_index targets one statement of the model (0-based); None means
    the scheme is built against the model as a whole (union of the blocks of
    all statements with non-empty conditioning set).
    """

    kind: str
    subset: tuple[int, ...] | None = None
    statement_index: int | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise SchemeError(f"unknown scheme kind {self.kind!r}; expected one of {SCHEME_KINDS}")
        if self.subset is not None:
            if self.kind not in ("row", "column"):
                raise SchemeError(f"{self.kind} scheme does not take a row/column subset")
            object.__setattr__(self, "subset", tuple(sorted(int(v) for v in self.subset)))
            if len(set(self.subset)) != len(self.subset):
                raise SchemeError("scheme subset contains duplicates")


@dataclass(frozen=True)
class Variation:
    """Symmetric multiplicative perturbation of one entry of an n x n
    covariance: factor delta at (i, j) and its mirror, i <= j."""

    n: int
    i: int
    j: int
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        i, j, delta = int(self.i), int(self.j), float(self.delta)
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"position ({i + 1},{j + 1}) out of range for dimension {self.n}")
        if delta == 0:
            raise FactorError(
                f"variation factor at ({i + 1},{j + 1}) is zero: multiplying a "
                "covariance by zero would force a spurious independence"
            )
        if not math.isfinite(delta):
            raise FactorError(f"variation factor at ({i + 1},{j + 1}) is {delta}, not finite")
        object.__setattr__(self, "i", min(i, j))
        object.__setattr__(self, "j", max(i, j))
        object.__setattr__(self, "delta", delta)


def check_product(product: np.ndarray) -> None:
    """Require a symmetric plan product without zero entries; a product of
    factors that underflows to zero would force a spurious independence,
    and is a FactorError."""
    # bitwise-equal bytes are what check_symmetric accepts first, without its wrappers
    if product.tobytes() != product.T.tobytes():
        check_symmetric(product, "plan product")
    if not product.all():
        raise FactorError("plan product has zero entries")


@dataclass(frozen=True, eq=False)
class PerturbationPlan:
    """Perturbs cov to product * cov. steps holds, per factor, its
    Variation and the scheme as actually built (row/column sets resolved),
    and masks the delta-free mask M of each step; product is the Schur
    product of where(M, delta, 1) over the steps, derived on first read."""

    steps: tuple[tuple[Variation, Scheme], ...]
    masks: tuple[np.ndarray, ...]

    @functools.cached_property
    def product(self) -> np.ndarray:
        (variation, _), *rest = self.steps
        product = np.where(self.masks[0], variation.delta, 1.0)
        for (variation, _), mask in zip(rest, self.masks[1:]):
            product = product * np.where(mask, variation.delta, 1.0)
        return product

    def apply(self, cov) -> np.ndarray:
        """Perturbed covariance: entrywise product with the plan."""
        cov = as_matrix(cov)
        if cov.shape != self.product.shape:
            raise ValueError(f"dimension mismatch: plan is {len(self.product)}, matrix is {cov.shape[0]}")
        return self.product * cov


def _one_based(indices) -> list[int]:
    return sorted(k + 1 for k in indices)


def _fill_set(
    scheme: Scheme, i: int, j: int, varied: int, own: set[int], other: set[int]
) -> tuple[int, ...]:
    """The row set E (own = block rows, other = block columns) or, mirrored,
    the column set F of a row or column fill at position (i, j).

    The fill is E x cols and its mirror cols x E. Inside the block the
    mirror adds (rows & cols) x (E & cols), which the fill already holds iff
    E misses the columns or contains rows & cols; otherwise mirroring would
    scale part of a row the scheme leaves alone. The default set is the
    varied row alone, or all of rows & cols when the varied row lies there.
    """
    overlap = own & other
    if scheme.subset is None:
        return tuple(sorted(overlap)) if varied in overlap else (varied,)
    subset = set(scheme.subset)
    covers = (i in subset and j in other) or (j in subset and i in other)
    if subset <= own and covers and (overlap <= subset or not subset & other):
        return scheme.subset
    side, opposite = ("row", "column") if scheme.kind == "row" else ("column", "row")
    raise SchemeError(
        f"{side} set {_one_based(subset)} does not fit position ({i + 1},{j + 1}): a {side} set "
        f"must lie within the block {side}s {_one_based(own)} and cover the position, and one "
        f"that meets the block {opposite}s must contain {_one_based(overlap)} (else its fill is "
        "not symmetrizable without altering the block)"
    )


class _Fill(NamedTuple):
    """The delta-free part of a plan at one position: the read-only mask M
    of the entries it scales, the scheme as built (E/F resolved; "none"
    where nothing is covaried), the warning every build issues (None when
    there is none), and the message of the SchemeError that refuses the
    requested set (None when the set fits)."""

    mask: np.ndarray
    scheme: Scheme
    warning: str | None
    refused: str | None


def _read_only(mask: np.ndarray) -> np.ndarray:
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=16)
def _fill(n: int, i: int, j: int, scheme: Scheme, statements: tuple[CIStatement, ...]) -> _Fill:
    """The delta-free fill of a plan at (i, j), memoised per (dimension,
    position, scheme, statements).

    Total fills the whole matrix. "none", and any scheme that no statement
    constrains, scales the position and its mirror alone: marginal
    statements are zeros and zeros stay zeros under scaling. Otherwise the
    fill lies inside the block rows x cols, the union of the targeted
    statements' blocks (one statement's own block when there is one): the
    factor goes on the fill and its mirror, ones elsewhere, so inside the
    block it scales exactly the prescribed rows or columns and every minor
    of each statement block is scaled by a power of the factor. A position
    outside the block needs no covariation, and scales the position alone.
    Target and dimension errors propagate and are not cached.
    """
    k = scheme.statement_index
    if k is None:
        targets = tuple(s for s in statements if s.given)
    elif 0 <= k < len(statements):
        targets = (statements[k],)
    else:
        raise SchemeError(f"statement index {k + 1} out of range ({len(statements)} statements)")
    top = max((s.max_index for s in targets), default=-1)
    if top >= n:
        raise IndexError(f"statement index {top + 1} out of range for dimension {n}")
    if scheme.kind == "total":
        return _Fill(_read_only(np.ones((n, n), dtype=bool)), Scheme("total"), None, None)
    position = np.zeros((n, n), dtype=bool)
    position[i, j] = position[j, i] = True
    position = _read_only(position)
    if scheme.kind == "none" or not targets:
        return _Fill(position, Scheme("none"), None, None)

    rows = {k for s in targets for k in s.block_rows}
    cols = {k for s in targets for k in s.block_cols}
    if i in rows and j in cols:
        ii, jj = i, j
    elif j in rows and i in cols:
        ii, jj = j, i
    else:
        outside = (
            f"position ({i + 1},{j + 1}) lies outside the statement block; "
            "no covariation is needed and none is applied"
        )
        return _Fill(position, Scheme("none"), outside, None)
    r, c, subset = sorted(rows), sorted(cols), None
    try:
        if scheme.kind == "row":
            r = subset = _fill_set(scheme, i, j, ii, rows, cols)
        elif scheme.kind == "column":
            c = subset = _fill_set(scheme, i, j, jj, cols, rows)
    except SchemeError as e:
        return _Fill(position, scheme, None, str(e))
    mask = np.zeros((n, n), dtype=bool)
    mask[np.ix_(r, c)] = True
    mask[np.ix_(c, r)] = True
    return _Fill(_read_only(mask), Scheme(scheme.kind, subset, scheme.statement_index), None, None)


def build_plan(
    variation: Variation, scheme: Scheme, statements: Sequence[CIStatement]
) -> PerturbationPlan:
    """Plan for a variation against a model (list of statements): the
    variation, the scheme as built and the memoised fill M (_fill), whose
    product is where(M, delta, 1).

    With statement_index set, the scheme is built against that one
    statement, marginal or not. Otherwise only the statements with
    non-empty conditioning set constrain the construction: marginal
    statements are zeros of the covariance and survive any entrywise
    scaling. Every call issues the plan's warning (position outside the
    block, else negative factor under a partial, row or column fill) and
    then its refused-set error; total refuses a negative factor first.
    """
    delta = variation.delta
    fill = _fill(variation.n, variation.i, variation.j, scheme, tuple(statements))
    if scheme.kind == "total" and delta <= 0:
        raise SchemeError("total covariation requires delta > 0: variances would change sign")
    if fill.warning is not None:
        warnings.warn(fill.warning, stacklevel=2)
    elif delta < 0 and fill.scheme.kind in ("partial", "row", "column"):
        warnings.warn(
            f"negative factor {delta} under a {scheme.kind} covariation flips the sign "
            "of the covaried entries; allowed, but rarely intended",
            stacklevel=2,
        )
    if fill.refused is not None:
        raise SchemeError(fill.refused)
    return PerturbationPlan(((variation, fill.scheme),), (fill.mask,))


def compose(p1: PerturbationPlan, p2: PerturbationPlan) -> PerturbationPlan:
    """Schur product of two plans, with their steps and masks in turn; a
    product with a zero entry is a FactorError (check_product)."""
    if p1.masks[0].shape != p2.masks[0].shape:
        raise ValueError(f"dimension mismatch: {len(p1.masks[0])} vs {len(p2.masks[0])}")
    plan = PerturbationPlan(p1.steps + p2.steps, p1.masks + p2.masks)
    check_product(plan.product)
    return plan


def verify_preserving(
    plan: PerturbationPlan,
    cov,
    statements: Sequence[CIStatement],
    tol: TolerancePolicy = DEFAULT_TOL,
    names: Sequence[str] | None = None,
) -> ModelCheck:
    """Apply the plan and re-check every statement on the perturbed matrix.

    Raises ModelPreconditionError when the input matrix does not satisfy the
    model (its witness names variables by names, else by 1-based index), so
    "input was never in the model" is never reported as "the perturbation
    broke the model". Positive definiteness of the result is deliberately
    not part of the verdict; it is the separate admissibility flag reported
    by sweeps.
    """
    cov = check_symmetric(as_matrix(cov))
    require_model(cov, statements, tol, names)
    return model_holds(plan.apply(cov), statements, tol)
