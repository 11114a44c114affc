"""Conditional-independence statements and their algebraic verification.

Definition. A statement "left independent of right given given" holds for a
covariance matrix exactly when every minor of order k = len(given)+1 of its
block M (rows left+given, columns right+given) vanishes, in the sense of
TolerancePolicy.minor_is_zero applied to the minor as iter_minors computes
it. The verdict keeps this definition; what follows only decides it without
enumerating the minors, whose number grows exponentially with the sets.
Write A, B, C for left, right and given.

1. Empty C. The minors are the entries of Sigma_AB, and the 1x1 rule
   |v| <= rel * max(1, |v|) is applied to the whole block at once. Exact.

2. Certified hold. Solve Y = Sigma_CC^-1 Sigma_CB (only when Sigma_CC passes
   the RCOND_LIMIT rule of matcore.inverse) and let N = [Sigma_AC; Sigma_CC]
   [Y, I]. N has rank <= |C|, and E = M - N is zero on the C columns and
   holds the residuals Sigma_AB - Sigma_AC Y (the Schur residual
   Sigma_AB.C when Y is exact) and Sigma_CB - Sigma_CC Y on the B columns.
   The exact value of every residual differs from the computed one by at
   most gamma_{c+1} (|Sigma_XB| + |Sigma_XC| |Y|) (Higham, Accuracy and
   Stability of Numerical Algorithms, 2002, eq. 3.5; c = |C|), and
   gamma_{2c+4} of the same sum, as evaluated, covers that together with
   its own rounding; s is the largest computed |residual| plus this
   allowance, and mu = max|M|.

   Lemma. If X is k x k, X - Y is singular, |X| <= nu and |Y| <= sigma
   entrywise, then |det X| <= k^((k+2)/2) sigma (nu + sigma)^(k-1).
   Proof: det(X - Y) = 0, and expanding it multilinearly in rows gives
   det X = -sum over non-empty row sets J of (-1)^|J| det(X with the rows
   in J taken from Y). By Hadamard's inequality each term is at most
   (sqrt(k) sigma)^|J| (sqrt(k) nu)^(k-|J|), so |det X| <= k^(k/2)
   ((nu + sigma)^k - nu^k) <= k^(k/2) k sigma (nu + sigma)^(k-1).

   The minors are evaluated by cofactor formulas up to k = 3 and by LU
   with partial pivoting above, and the certificate covers the computed
   values:
   - k <= 3. The exact minor (X = the k x k submatrix, Y = E_X, its part
     of E) is at most bound(s, mu) <= rel/2. The cofactor sum has k! products,
     each at most scale = product of row maxima in magnitude, and rounds
     at most 2k-1 times along each, so the computed minor is off by at
     most k! gamma_{2k-1} scale. Requiring k! gamma_{3k} <= rel/2 also
     covers the rounding of scale and of rel * scale. Hence |computed| <=
     rel * max(1, scale).
   - k >= 4. LU returns L U = X + D with |D| <= gamma_k |L| |U| (Higham,
     Thm 9.3); partial pivoting keeps |l| <= 1 and the p-th row of U
     below 2^(p-1) mu, so |D| <= d = gamma_k 2^k mu. (X + D) - (E_X + D)
     is N_X, the k x k part of N, which is singular, so the lemma gives
     |det(X + D)| <= bound(s + d, mu + d) <= rel. numpy forms the
     determinant as sign * exp(sum of ln|u_ii|), which adds a relative
     error below 1000 k (k+2) u, since |ln x| < 745 for every positive
     double.
   Every bound is multiplied by (1 + 1000 k (k+2) u), which also covers
   the rounding of evaluating it and of the tolerance test, and
   floating-point underflow is covered by adding the smallest normal
   double.

3. Confirmed failure. The largest |Sigma_AB - Sigma_AC Y| entry (a, b)
   names the minor on rows {a}+C and columns {b}+C; iter_minors computes
   it exactly as it computes it within the block. If the tolerance
   rejects it, the statement fails.

4. Anything else (singular Sigma_CC, non-finite entries, a bound above the
   tolerance with a vanishing confirming minor, rel = 0) enumerates the
   minors as the definition states.

A failing statement's witness is the first non-vanishing minor in
enumeration order. It is found by early-exit enumeration when it is first
read, so a verdict that is only tested for truth costs no enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ModelPreconditionError
from .matcore import (
    RCOND_LIMIT,
    Block,
    DEFAULT_TOL,
    Minor,
    TolerancePolicy,
    as_matrix,
    check_symmetric,
    iter_minors,
    rcond,
    submatrix,
)

_U = float(np.finfo(float).eps) / 2
_TINY = float(np.finfo(float).tiny)


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


@dataclass(frozen=True, eq=False)
class CICheck:
    """Verdict on one statement; witness is the first non-vanishing minor in
    enumeration order when the statement fails, None when it holds."""

    holds: bool
    find_witness: Callable[[], Minor | None] = field(repr=False)

    @cached_property
    def witness(self) -> Minor | None:
        return None if self.holds else self.find_witness()

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True, eq=False)
class ModelCheck:
    """Verdicts on a list of statements, in order."""

    checks: tuple[CICheck, ...]

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.checks)

    @property
    def failures(self) -> tuple[tuple[int, Minor], ...]:
        """(statement index, witness) of every failing statement."""
        return tuple((k, c.witness) for k, c in enumerate(self.checks) if not c.holds)

    @property
    def first_failure(self) -> tuple[int, Minor] | None:
        return next(((k, c.witness) for k, c in enumerate(self.checks) if not c.holds), None)

    def __bool__(self) -> bool:
        return self.holds


def _gamma(n: int) -> float:
    """Bound on the relative error of n roundings, n u / (1 - n u)."""
    return n * _U / (1 - n * _U)


def _bound(k: int, sigma: float, nu: float) -> float:
    """The lemma's bound on a k x k determinant, padded for rounding."""
    pad = 1 + 1000 * k * (k + 2) * _U
    try:
        return pad * k ** ((k + 2) / 2) * sigma * (nu + sigma) ** (k - 1) + _TINY
    except OverflowError:  # float ** raises where float * gives inf
        return math.inf


def _certified(k: int, s: float, mu: float, rel: float) -> bool:
    """True when every computed k-minor provably passes the tolerance."""
    if k <= 3:
        return math.factorial(k) * _gamma(3 * k) <= rel / 2 and _bound(k, s, mu) <= rel / 2
    d = _gamma(k) * 2**k * mu
    return _bound(k, s + d, mu + d) <= rel


def _first_witness(cov: np.ndarray, stmt: CIStatement, tol: TolerancePolicy) -> Minor | None:
    for minor in iter_minors(statement_block(cov, stmt), stmt.minor_order):
        if not tol.minor_is_zero(minor):
            return minor
    return None


def _decide(cov: np.ndarray, stmt: CIStatement, tol: TolerancePolicy) -> bool | None:
    """The verdict when steps 1-3 of the module docstring decide it, else None."""
    a, b, c = stmt.left, stmt.right, stmt.given
    if not c:
        v = np.abs(cov.take(a, 0).take(b, 1))
        return bool(np.all(v <= tol.rel * np.maximum(1.0, v)))
    # the statement block with rows A then C and columns B then C
    block = cov.take(a + c, 0).take(b + c, 1)
    na, nb = len(a), len(b)
    size = np.abs(block)
    mu = float(size.max())
    if not math.isfinite(mu) or rcond(block[na:, nb:]) < RCOND_LIMIT:
        return None
    y = np.linalg.solve(block[na:, nb:], block[na:, :nb])
    residual = block[:, :nb] - block[:, nb:] @ y
    allowance = _gamma(2 * len(c) + 4) * (size[:, :nb] + size[:, nb:] @ np.abs(y))
    s = float((np.abs(residual) + allowance).max())
    if not math.isfinite(s):
        return None
    if _certified(len(c) + 1, s, mu, tol.rel):
        return True
    i, j = np.unravel_index(np.argmax(np.abs(residual[:na])), (na, nb))
    rows = tuple(sorted(c + (a[i],)))
    cols = tuple(sorted(c + (b[j],)))
    minor = next(iter_minors(submatrix(cov, rows, cols), len(c) + 1))
    return False if not tol.minor_is_zero(minor) else None


def _check(cov: np.ndarray, stmt: CIStatement, tol: TolerancePolicy) -> CICheck:
    _check_dim(cov, stmt)
    holds = _decide(cov, stmt, tol)
    if holds is None:
        witness = _first_witness(cov, stmt, tol)
        return CICheck(witness is None, lambda: witness)
    return CICheck(holds, lambda: _first_witness(cov, stmt, tol))


def ci_holds(cov, stmt: CIStatement, tol: TolerancePolicy = DEFAULT_TOL) -> CICheck:
    """Check one statement (see the module docstring for how)."""
    return _check(check_symmetric(as_matrix(cov)), stmt, tol)


def model_holds(
    cov, statements: Sequence[CIStatement], tol: TolerancePolicy = DEFAULT_TOL
) -> ModelCheck:
    """ci_holds for every statement, with cov validated once."""
    cov = check_symmetric(as_matrix(cov))
    return ModelCheck(tuple(_check(cov, stmt, tol) for stmt in statements))


def require_model(
    cov, statements: Sequence[CIStatement], tol: TolerancePolicy, names: Sequence[str] | None
) -> None:
    """Raise ModelPreconditionError unless cov satisfies every statement, so
    that "the input was never in the model" is not reported as "the
    perturbation broke the model"."""
    failure = model_holds(cov, statements, tol).first_failure
    if failure is not None:
        k, minor = failure
        raise ModelPreconditionError(
            f"covariance does not satisfy the model: statement {k + 1} "
            f"fails with {minor.describe(names)}"
        )


def nonempty_conditioning(statements: Sequence[CIStatement]) -> tuple[CIStatement, ...]:
    """The sub-list of statements with a non-empty conditioning set, in order."""
    return tuple(s for s in statements if s.given)

