"""Multiplicative variations, covariation schemes and model preservation.

A variation multiplies chosen covariance entries by nonzero factors. A
covariation scheme fills further entries so that every vanishing minor of
the model keeps vanishing: scaling whole rows (or columns) of a statement's
defining block scales each minor by a power of the factor, which preserves
zero. Four fill shapes are supported:

  total    fill the whole matrix
  partial  fill the statement block (rows x cols of the defining submatrix)
  row      fill rows E of the block, E a subset of the block rows
  column   fill columns F of the block, F a subset of the block columns

plus "none" (no covariation at all). One builder makes every partial, row
and column fill; its block is the union of the blocks of the statements it
targets, and one statement is the one-element case. A single-position plan
is 1 + (delta-1)*M for a 0/1 mask M that the scheme fixes and delta does
not touch, so whether a scheme keeps the model valid is decided on the sets
E and F alone. The builder resolves that delta-free fill (targets, block,
E/F and mask) once per (position, scheme, statements) and memoises it;
every factor's plan is then where(M, delta, 1), with its warnings and any
refused-set error issued on each build.
Multi-parameter variations are decomposed into single-parameter factors
which are covaried individually and composed by entrywise product.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cimodel import CIStatement, ModelCheck, model_holds, nonempty_conditioning, require_model
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


@dataclass(frozen=True, eq=False)
class Variation:
    """Symmetric multiplicative perturbation: factor delta at each requested
    position (and its mirror), ones elsewhere."""

    n: int
    factors: tuple[tuple[int, int, float], ...]  # (i, j, delta), i <= j

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        norm = []
        seen = set()
        for i, j, delta in self.factors:
            i, j, delta = int(i), int(j), float(delta)
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise IndexError(f"position ({i + 1},{j + 1}) out of range for dimension {self.n}")
            if delta == 0:
                raise FactorError(
                    f"variation factor at ({i + 1},{j + 1}) is zero: multiplying a "
                    "covariance by zero would force a spurious independence"
                )
            if not math.isfinite(delta):
                raise FactorError(f"variation factor at ({i + 1},{j + 1}) is {delta}, not finite")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate variation position ({key[0] + 1},{key[1] + 1})")
            seen.add(key)
            norm.append((key[0], key[1], delta))
        object.__setattr__(self, "factors", tuple(norm))

    @property
    def matrix(self) -> np.ndarray:
        out = np.ones((self.n, self.n))
        for i, j, delta in self.factors:
            out[i, j] = delta
            out[j, i] = delta
        return out

    def split(self) -> tuple["Variation", ...]:
        """Single-position factors whose Schur product is this variation."""
        return tuple(Variation(self.n, (f,)) for f in self.factors)


@dataclass(frozen=True)
class PlanStep:
    """One single-position factor of a plan, with the scheme as actually built
    (row/column subsets resolved)."""

    i: int
    j: int
    delta: float
    scheme: Scheme


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
    """A variation with its covariation: perturbs cov to product * cov."""

    variation: Variation
    product: np.ndarray
    steps: tuple[PlanStep, ...]

    def __post_init__(self):
        check_product(self.product)

    @property
    def n(self) -> int:
        return self.variation.n

    def apply(self, cov) -> np.ndarray:
        """Perturbed covariance: entrywise product with the plan."""
        cov = as_matrix(cov)
        if cov.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: plan is {self.n}, matrix is {cov.shape[0]}")
        return self.product * cov


def _finish_plan(variation: Variation, product: np.ndarray, scheme: Scheme) -> PerturbationPlan:
    i, j, delta = variation.factors[0]
    return PerturbationPlan(variation=variation, product=product, steps=(PlanStep(i, j, delta, scheme),))


def _ones_plan(variation: Variation) -> PerturbationPlan:
    return _finish_plan(variation, variation.matrix, Scheme("none"))


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
    """The delta-free part of a partial, row or column plan at one position:
    the read-only mask of the entries it scales (None when the position lies
    outside the statement block), the scheme as built (E/F resolved), and
    the message of the SchemeError that refuses the requested set (None when
    the set fits)."""

    mask: np.ndarray | None
    scheme: Scheme
    refused: str | None


@functools.lru_cache(maxsize=16)
def _fill(
    n: int, i: int, j: int, scheme: Scheme, statements: tuple[CIStatement, ...]
) -> _Fill | None:
    """The delta-free fill of a single-position plan at (i, j), memoised per
    (dimension, position, scheme, statements); None when no fill applies
    (scheme "none" or "total", or no statement constrains the variation).

    The fill lies inside the block rows x cols, the union of the targeted
    statements' blocks (one statement's own block when there is one): the
    factor goes on the fill and its mirror, ones elsewhere, so inside the
    block it scales exactly the prescribed rows or columns and every minor
    of each statement block is scaled by a power of the factor. A position
    outside the block needs no covariation. Target and dimension errors
    propagate and are not cached.
    """
    k = scheme.statement_index
    if k is None:
        targets = nonempty_conditioning(statements)
    elif 0 <= k < len(statements):
        targets = (statements[k],)
    else:
        raise SchemeError(f"statement index {k + 1} out of range ({len(statements)} statements)")
    top = max((s.max_index for s in targets), default=-1)
    if top >= n:
        raise IndexError(f"statement index {top + 1} out of range for dimension {n}")
    if scheme.kind in ("none", "total") or not targets:
        # nothing constrains the variation: marginal statements are zeros and
        # zeros stay zeros under scaling
        return None

    rows = {k for s in targets for k in s.block_rows}
    cols = {k for s in targets for k in s.block_cols}
    if i in rows and j in cols:
        ii, jj = i, j
    elif j in rows and i in cols:
        ii, jj = j, i
    else:
        return _Fill(None, scheme, None)
    r, c, subset = sorted(rows), sorted(cols), None
    try:
        if scheme.kind == "row":
            r = subset = _fill_set(scheme, i, j, ii, rows, cols)
        elif scheme.kind == "column":
            c = subset = _fill_set(scheme, i, j, jj, cols, rows)
    except SchemeError as e:
        return _Fill(None, scheme, str(e))
    mask = np.zeros((n, n), dtype=bool)
    mask[np.ix_(r, c)] = True
    mask[np.ix_(c, r)] = True
    mask.flags.writeable = False
    return _Fill(mask, Scheme(scheme.kind, subset, scheme.statement_index), None)


def build_plan(
    variation: Variation, scheme: Scheme, statements: Sequence[CIStatement]
) -> PerturbationPlan:
    """Plan for a variation against a model (list of statements).

    Multi-position variations are split into single-position factors, each
    covaried with the requested scheme, and composed. With statement_index
    set, the scheme is built against that one statement, marginal or not.
    Otherwise only the statements with non-empty conditioning set constrain
    the construction: marginal statements are zeros of the covariance and
    survive any entrywise scaling. A single-position partial, row or column
    plan is where(mask, delta, 1) over its memoised fill (_fill); its
    warnings (position outside the block, then negative factor) and then
    its refused-set error are issued on every call.
    """
    if len(variation.factors) != 1:
        if not variation.factors:
            return PerturbationPlan(variation=variation, product=np.ones((variation.n, variation.n)), steps=())
        plan = None
        for single in variation.split():
            p = build_plan(single, scheme, statements)
            plan = p if plan is None else compose(plan, p)
        return plan

    n = variation.n
    i, j, delta = variation.factors[0]
    fill = _fill(n, i, j, scheme, tuple(statements))
    if scheme.kind == "total":
        if delta <= 0:
            raise SchemeError("total covariation requires delta > 0: variances would change sign")
        return _finish_plan(variation, np.full((n, n), delta), Scheme("total"))
    if fill is None:
        return _ones_plan(variation)
    if fill.mask is None and fill.refused is None:  # outside the block
        warnings.warn(
            f"position ({i + 1},{j + 1}) lies outside the statement block; "
            "no covariation is needed and none is applied",
            stacklevel=2,
        )
        return _ones_plan(variation)
    if delta < 0:
        warnings.warn(
            f"negative factor {delta} under a {scheme.kind} covariation flips the sign "
            "of the covaried entries; allowed, but rarely intended",
            stacklevel=2,
        )
    if fill.refused is not None:
        raise SchemeError(fill.refused)
    return _finish_plan(variation, np.where(fill.mask, delta, 1.0), fill.scheme)


def compose(p1: PerturbationPlan, p2: PerturbationPlan) -> PerturbationPlan:
    """Entrywise product of two plans; factors at a shared position multiply."""
    if p1.n != p2.n:
        raise ValueError(f"dimension mismatch: {p1.n} vs {p2.n}")
    merged: dict[tuple[int, int], float] = {}
    for i, j, delta in p1.variation.factors + p2.variation.factors:
        merged[(i, j)] = merged.get((i, j), 1.0) * delta
    variation = Variation(p1.n, tuple((i, j, d) for (i, j), d in merged.items()))
    return PerturbationPlan(variation=variation, product=p1.product * p2.product, steps=p1.steps + p2.steps)


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
