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

plus "none" (no covariation at all). Multi-parameter variations are
decomposed into single-parameter factors which are covaried individually
and composed by entrywise product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cimodel import CIStatement, model_holds, nonempty_conditioning, require_model
from .errors import FactorError, SchemeError
from .matcore import (
    DEFAULT_TOL,
    Minor,
    TolerancePolicy,
    as_matrix,
    check_symmetric,
    ones_block,
)

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

    @classmethod
    def total(cls):
        return cls("total")

    @classmethod
    def partial(cls, statement_index: int | None = None):
        return cls("partial", statement_index=statement_index)

    @classmethod
    def row(cls, subset=None, statement_index: int | None = None):
        return cls("row", None if subset is None else tuple(subset), statement_index)

    @classmethod
    def column(cls, subset=None, statement_index: int | None = None):
        return cls("column", None if subset is None else tuple(subset), statement_index)

    @classmethod
    def none(cls):
        return cls("none")


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


def make_variation(n: int, positions_with_factors) -> Variation:
    """Variation from (i, j, delta) triples (0-based positions)."""
    return Variation(n, tuple(positions_with_factors))


@dataclass(frozen=True)
class PlanStep:
    """One single-position factor of a plan, with the scheme as actually built
    (row/column subsets resolved)."""

    i: int
    j: int
    delta: float
    scheme: Scheme


@dataclass(frozen=True, eq=False)
class PerturbationPlan:
    """A variation with its covariation: perturbs cov to product * cov."""

    variation: Variation
    covariation: np.ndarray
    product: np.ndarray
    steps: tuple[PlanStep, ...]

    def __post_init__(self):
        check_symmetric(self.product, "plan product")
        if np.any(self.product == 0):
            raise ValueError("plan product has zero entries")

    @property
    def n(self) -> int:
        return self.variation.n

    def apply(self, cov) -> np.ndarray:
        """Perturbed covariance: entrywise product with the plan."""
        cov = as_matrix(cov)
        if cov.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: plan is {self.n}, matrix is {cov.shape[0]}")
        return self.product * cov

    def is_total(self) -> bool:
        return bool(self.steps) and all(s.scheme.kind == "total" for s in self.steps)

    def total_factor(self) -> float:
        """Product of the factors of a plan composed of total schemes only."""
        if not self.is_total():
            raise ValueError("plan is not composed of total schemes")
        return float(np.prod([s.delta for s in self.steps]))


def _ones_plan(variation: Variation) -> PerturbationPlan:
    i, j, delta = variation.factors[0]
    return PerturbationPlan(
        variation=variation,
        covariation=np.ones((variation.n, variation.n)),
        product=variation.matrix,
        steps=(PlanStep(i, j, delta, Scheme("none")),),
    )


def _finish_plan(variation: Variation, product: np.ndarray, scheme: Scheme) -> PerturbationPlan:
    i, j, delta = variation.factors[0]
    return PerturbationPlan(
        variation=variation,
        covariation=product / variation.matrix,
        product=product,
        steps=(PlanStep(i, j, delta, scheme),),
    )


def _classify(i: int, j: int, stmt: CIStatement) -> tuple[str, int, int] | None:
    """Locate (i, j) in the statement block; returns (case, row-side index,
    col-side index) or None when the position misses the block entirely.

    Cases: "ab" left x right, "ac" left x given, "cb" given x right,
    "cc" given x given.
    """
    a, b, c = set(stmt.left), set(stmt.right), set(stmt.given)
    for x, y in ((i, j), (j, i)):
        if x in a | c and y in b | c:
            if x in c and y in c:
                return ("cc", x, y)
            if x in a and y in b:
                return ("ab", x, y)
            if x in a and y in c:
                return ("ac", x, y)
            return ("cb", x, y)
    return None


def _warn_negative(delta: float, kind: str):
    if delta < 0:
        warnings.warn(
            f"negative factor {delta} under a {kind} covariation flips the sign "
            "of the covaried entries; allowed, but rarely intended",
            stacklevel=3,
        )


def build_scheme(variation: Variation, scheme: Scheme, stmt: CIStatement) -> PerturbationPlan:
    """Plan for a single-position variation against one statement.

    Row/column subsets are validated against the position's location in the
    statement block: positions in left x right admit any row set within
    "left" containing the row (column set within "right" containing the
    column); positions touching the conditioning set force the corresponding
    set to be exactly the conditioning set. A position outside the block
    needs no covariation at all and degrades to ones with a warning.
    """
    if len(variation.factors) != 1:
        raise SchemeError("build_scheme takes a single-position variation; compose factors instead")
    n = variation.n
    if stmt.max_index >= n:
        raise IndexError(f"statement index {stmt.max_index + 1} out of range for dimension {n}")
    i, j, delta = variation.factors[0]

    if scheme.kind == "none":
        return _ones_plan(variation)
    if scheme.kind == "total":
        if delta <= 0:
            raise SchemeError("total covariation requires delta > 0: variances would change sign")
        return _finish_plan(variation, np.full((n, n), delta), Scheme("total"))

    where = _classify(i, j, stmt)
    if where is None:
        warnings.warn(
            f"position ({i + 1},{j + 1}) lies outside the statement block; "
            "no covariation is needed and none is applied",
            stacklevel=2,
        )
        return _ones_plan(variation)
    case, ii, jj = where
    rows, cols = stmt.block_rows, stmt.block_cols
    _warn_negative(delta, scheme.kind)

    if scheme.kind == "partial":
        return _finish_plan(
            variation, ones_block(n, rows, cols, delta), Scheme("partial", None, scheme.statement_index)
        )

    if scheme.kind == "row":
        if case in ("ab", "ac"):
            subset = scheme.subset if scheme.subset is not None else (ii,)
            if ii not in subset or not set(subset) <= set(stmt.left):
                raise SchemeError(
                    f"row covariation for a position in "
                    f"{'left x right' if case == 'ab' else 'left x given'} needs a row set "
                    f"within the left set and containing row {ii + 1}; got {sorted(subset)}"
                )
        else:  # cb, cc
            subset = scheme.subset if scheme.subset is not None else stmt.given
            if tuple(sorted(subset)) != stmt.given:
                raise SchemeError(
                    "row covariation for a position touching the conditioning set "
                    "must cover exactly the conditioning rows"
                )
        return _finish_plan(
            variation, ones_block(n, subset, cols, delta), Scheme("row", tuple(subset), scheme.statement_index)
        )

    # column
    if case in ("ab", "cb"):
        subset = scheme.subset if scheme.subset is not None else (jj,)
        if jj not in subset or not set(subset) <= set(stmt.right):
            raise SchemeError(
                f"column covariation for a position in "
                f"{'left x right' if case == 'ab' else 'given x right'} needs a column set "
                f"within the right set and containing column {jj + 1}; got {sorted(subset)}"
            )
    else:  # ac, cc
        subset = scheme.subset if scheme.subset is not None else stmt.given
        if tuple(sorted(subset)) != stmt.given:
            raise SchemeError(
                "column covariation for a position touching the conditioning set "
                "must cover exactly the conditioning columns"
            )
    return _finish_plan(
        variation, ones_block(n, rows, subset, delta), Scheme("column", tuple(subset), scheme.statement_index)
    )


def _union_block(statements: Sequence[CIStatement]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rows: set[int] = set()
    cols: set[int] = set()
    for s in statements:
        rows |= set(s.block_rows)
        cols |= set(s.block_cols)
    return tuple(sorted(rows)), tuple(sorted(cols))


def _step_fill(
    step: PlanStep, rows: tuple[int, ...], cols: tuple[int, ...]
) -> np.ndarray:
    """The block content over rows x cols that the step's scheme prescribes."""
    fill = np.ones((len(rows), len(cols)))
    kind = step.scheme.kind
    if kind in ("total", "partial"):
        fill[:, :] = step.delta
    elif kind == "row":
        for a, r in enumerate(rows):
            if r in step.scheme.subset:
                fill[a, :] = step.delta
    elif kind == "column":
        for b, c in enumerate(cols):
            if c in step.scheme.subset:
                fill[:, b] = step.delta
    else:  # none: only the varied position itself (where it falls in the block)
        for x, y in ((step.i, step.j), (step.j, step.i)):
            if x in rows and y in cols:
                fill[rows.index(x), cols.index(y)] = step.delta
    return fill


def _fill_fixed_point(fill: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...]) -> bool:
    """Embed-then-restrict fixed point: symmetrizing the prescribed block must
    not alter any entry inside the block."""
    rpos = {r: a for a, r in enumerate(rows)}
    cpos = {c: b for b, c in enumerate(cols)}
    for a, r in enumerate(rows):
        for b, c in enumerate(cols):
            # mirror of (r, c) is (c, r); it is inside the block iff c is a
            # block row and r a block column
            if c in rpos and r in cpos:
                if fill[a, b] != fill[rpos[c], cpos[r]]:
                    return False
    return True


def validate_multi(plan: PerturbationPlan, statements: Sequence[CIStatement]) -> bool:
    """Check the symmetrization fixed point of every plan factor over the
    union block of the statements with non-empty conditioning set.

    Assumes the plan's row/column fills were prescribed against the union
    block (the way build_plan constructs them).
    """
    work = nonempty_conditioning(statements)
    if not work:
        return True
    rows, cols = _union_block(work)
    return all(_fill_fixed_point(_step_fill(s, rows, cols), rows, cols) for s in plan.steps)


def _build_union(
    variation: Variation, scheme: Scheme, statements: Sequence[CIStatement]
) -> PerturbationPlan:
    """Row/column/partial construction against the union block of several
    statements, guarded by the symmetrization fixed point."""
    n = variation.n
    i, j, delta = variation.factors[0]
    rows, cols = _union_block(statements)

    inside = (i in rows and j in cols) or (j in rows and i in cols)
    if not inside:
        warnings.warn(
            f"position ({i + 1},{j + 1}) lies outside every statement block; "
            "no covariation is needed and none is applied",
            stacklevel=3,
        )
        return _ones_plan(variation)
    _warn_negative(delta, scheme.kind)

    if scheme.kind == "partial":
        built = Scheme("partial")
        product = ones_block(n, rows, cols, delta)
    elif scheme.kind == "row":
        overlap = set(rows) & set(cols)
        ii = i if (i in rows and j in cols) else j
        if scheme.subset is None:
            subset = tuple(sorted(overlap | {ii})) if ii in overlap else (ii,)
        else:
            subset = scheme.subset
            if not set(subset) <= set(rows):
                raise SchemeError("row set must lie within the union block rows")
            if not ((i in subset and j in cols) or (j in subset and i in cols)):
                raise SchemeError("row set does not cover the varied position")
        built = Scheme("row", subset)
        product = ones_block(n, subset, cols, delta)
    else:  # column
        overlap = set(rows) & set(cols)
        jj = j if (i in rows and j in cols) else i
        if scheme.subset is None:
            subset = tuple(sorted(overlap | {jj})) if jj in overlap else (jj,)
        else:
            subset = scheme.subset
            if not set(subset) <= set(cols):
                raise SchemeError("column set must lie within the union block columns")
            if not ((j in subset and i in rows) or (i in subset and j in rows)):
                raise SchemeError("column set does not cover the varied position")
        built = Scheme("column", subset)
        product = ones_block(n, rows, subset, delta)

    plan = _finish_plan(variation, product, built)
    if not validate_multi(plan, statements):
        raise SchemeError(
            f"{scheme.kind} covariation with set {sorted(s + 1 for s in (built.subset or ()))} "
            "is not symmetrizable without altering the union block; widen the set"
        )
    return plan


def build_plan(
    variation: Variation, scheme: Scheme, statements: Sequence[CIStatement]
) -> PerturbationPlan:
    """Plan for a variation against a whole model (list of statements).

    Multi-position variations are split into single-position factors, each
    covaried with the requested scheme, and composed. Only the statements
    with non-empty conditioning set constrain the construction; marginal
    statements are zeros of the covariance and survive any entrywise scaling.
    """
    if len(variation.factors) == 0:
        return PerturbationPlan(
            variation=variation,
            covariation=np.ones((variation.n, variation.n)),
            product=np.ones((variation.n, variation.n)),
            steps=(),
        )
    if len(variation.factors) > 1:
        plan = None
        for single in variation.split():
            p = build_plan(single, scheme, statements)
            plan = p if plan is None else compose(plan, p)
        return plan

    if scheme.statement_index is not None:
        try:
            stmt = statements[scheme.statement_index]
        except IndexError:
            raise SchemeError(
                f"statement index {scheme.statement_index + 1} out of range "
                f"({len(statements)} statements)"
            ) from None
        return build_scheme(variation, scheme, stmt)

    if scheme.kind == "none":
        return _ones_plan(variation)
    if scheme.kind == "total":
        delta = variation.factors[0][2]
        if delta <= 0:
            raise SchemeError("total covariation requires delta > 0: variances would change sign")
        return _finish_plan(variation, np.full((variation.n,) * 2, delta), Scheme("total"))

    work = nonempty_conditioning(statements)
    if not work:
        # nothing constrains the variation: marginal statements are zeros and
        # zeros stay zeros under scaling
        return _ones_plan(variation)
    if len(work) == 1:
        return build_scheme(variation, scheme, work[0])
    return _build_union(variation, scheme, work)


def compose(p1: PerturbationPlan, p2: PerturbationPlan) -> PerturbationPlan:
    """Entrywise product of two plans; factors at a shared position multiply."""
    if p1.n != p2.n:
        raise ValueError(f"dimension mismatch: {p1.n} vs {p2.n}")
    merged: dict[tuple[int, int], float] = {}
    for i, j, delta in p1.variation.factors + p2.variation.factors:
        merged[(i, j)] = merged.get((i, j), 1.0) * delta
    variation = Variation(p1.n, tuple((i, j, d) for (i, j), d in merged.items()))
    return PerturbationPlan(
        variation=variation,
        covariation=p1.covariation * p2.covariation,
        product=p1.product * p2.product,
        steps=p1.steps + p2.steps,
    )


@dataclass(frozen=True)
class Verdict:
    """Outcome of a preservation check; failures pair statement index with
    the first non-vanishing minor."""

    preserving: bool
    failures: tuple[tuple[int, Minor], ...] = ()

    def __bool__(self) -> bool:
        return self.preserving

    @property
    def witness(self) -> Minor | None:
        return self.failures[0][1] if self.failures else None


def verify_preserving(
    plan: PerturbationPlan,
    cov,
    statements: Sequence[CIStatement],
    tol: TolerancePolicy = DEFAULT_TOL,
) -> Verdict:
    """Apply the plan and re-check every statement on the perturbed matrix.

    Raises ModelPreconditionError when the input matrix does not satisfy the
    model, so "input was never in the model" is never reported as "the
    perturbation broke the model". Positive semidefiniteness of the result is
    deliberately not part of the verdict; it is the separate admissibility
    flag reported by sweeps.
    """
    cov = check_symmetric(as_matrix(cov))
    require_model(cov, statements, tol, None)
    after = model_holds(plan.apply(cov), statements, tol)
    return Verdict(after.holds, after.failures)
