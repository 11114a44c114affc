"""Conditional-independence statements and their algebraic verification.

A statement "left independent of right given given" holds for a covariance
matrix exactly when every minor of order len(given)+1 of the submatrix with
rows left+given and columns right+given vanishes. Marginal statements
(empty conditioning set) reduce to zero entries, i.e. 1x1 minors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ModelPreconditionError
from .matcore import (
    Block,
    DEFAULT_TOL,
    Minor,
    TolerancePolicy,
    as_matrix,
    check_symmetric,
    iter_minors,
    submatrix,
)


@dataclass(frozen=True)
class CIStatement:
    """left ⫫ right | given, as disjoint 0-based index tuples."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    given: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("left", "right", "given"):
            vals = tuple(sorted(int(i) for i in getattr(self, name)))
            if len(set(vals)) != len(vals):
                raise ValueError(f"{name} contains duplicate indices")
            if any(i < 0 for i in vals):
                raise ValueError(f"{name} contains negative indices")
            object.__setattr__(self, name, vals)
        if not self.left or not self.right:
            raise ValueError("left and right sets must be non-empty")
        all_idx = self.left + self.right + self.given
        if len(set(all_idx)) != len(all_idx):
            raise ValueError("left, right and given must be pairwise disjoint")

    @property
    def block_rows(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.left) | set(self.given)))

    @property
    def block_cols(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.right) | set(self.given)))

    @property
    def minor_order(self) -> int:
        return len(self.given) + 1

    @property
    def max_index(self) -> int:
        return max(self.left + self.right + self.given)

    def describe(self, names: Sequence[str] | None = None) -> str:
        def fmt(idx):
            if names is not None:
                return ",".join(names[i] for i in idx)
            return ",".join(str(i + 1) for i in idx)

        base = f"{{{fmt(self.left)}}} _||_ {{{fmt(self.right)}}}"
        return base + (f" | {{{fmt(self.given)}}}" if self.given else "")


def statement_block(cov: np.ndarray, stmt: CIStatement) -> Block:
    """Submatrix of cov whose vanishing minors encode the statement."""
    return submatrix(cov, stmt.block_rows, stmt.block_cols)


def _check_dim(cov: np.ndarray, stmt: CIStatement):
    if stmt.max_index >= cov.shape[0]:
        raise IndexError(
            f"statement index {stmt.max_index + 1} out of range for "
            f"dimension {cov.shape[0]}"
        )


@dataclass(frozen=True)
class CICheck:
    holds: bool
    witness: Minor | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class ModelCheck:
    holds: bool
    failures: tuple[tuple[int, Minor], ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.holds


def ci_holds(cov, stmt: CIStatement, tol: TolerancePolicy = DEFAULT_TOL) -> CICheck:
    """Check one statement; on failure the witness is the first non-vanishing
    minor in enumeration order."""
    cov = check_symmetric(as_matrix(cov))
    _check_dim(cov, stmt)
    block = statement_block(cov, stmt)
    for minor in iter_minors(block, stmt.minor_order):
        if not tol.minor_is_zero(minor):
            return CICheck(False, minor)
    return CICheck(True)


def model_holds(
    cov, statements: Sequence[CIStatement], tol: TolerancePolicy = DEFAULT_TOL
) -> ModelCheck:
    """Conjunction of ci_holds over all statements; collects every failure."""
    failures = []
    for k, stmt in enumerate(statements):
        res = ci_holds(cov, stmt, tol)
        if not res.holds:
            failures.append((k, res.witness))
    return ModelCheck(not failures, tuple(failures))


def require_model(
    cov, statements: Sequence[CIStatement], tol: TolerancePolicy, names: Sequence[str] | None
) -> None:
    """Raise ModelPreconditionError unless cov satisfies every statement, so
    that "the input was never in the model" is not reported as "the
    perturbation broke the model"."""
    check = model_holds(cov, statements, tol)
    if not check.holds:
        k, minor = check.failures[0]
        raise ModelPreconditionError(
            f"covariance does not satisfy the model: statement {k + 1} "
            f"fails with {minor.describe(names)}"
        )


def _block_positions(stmt: CIStatement) -> set[tuple[int, int]]:
    return {(r, c) for r in stmt.block_rows for c in stmt.block_cols}


def separated(s1: CIStatement, s2: CIStatement) -> bool:
    """True iff no covariance entry (or its transpose) appears in both
    statements' defining submatrices."""
    p1 = _block_positions(s1)
    p2 = _block_positions(s2)
    return all((r, c) not in p2 and (c, r) not in p2 for r, c in p1)


def is_separable(statements: Sequence[CIStatement]) -> bool:
    """True iff all unordered pairs of statements are separated."""
    return all(
        separated(statements[i], statements[j])
        for i in range(len(statements))
        for j in range(i + 1, len(statements))
    )


def nonempty_conditioning(statements: Sequence[CIStatement]) -> tuple[CIStatement, ...]:
    """The sub-list of statements with a non-empty conditioning set, in order."""
    return tuple(s for s in statements if s.given)


def union_sets(
    statements: Sequence[CIStatement],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Unions of the left/right/given sets across statements.

    Unlike a single statement's sets these need not be disjoint.
    """
    left: set[int] = set()
    right: set[int] = set()
    given: set[int] = set()
    for s in statements:
        left |= set(s.left)
        right |= set(s.right)
        given |= set(s.given)
    return tuple(sorted(left)), tuple(sorted(right)), tuple(sorted(given))
