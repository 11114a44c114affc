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
   names the minor on rows {a}+C and columns {b}+C, which iter_minors
   evaluates as it does within the block. If the tolerance rejects it, the
   statement fails.

4. Anything else (singular Sigma_CC, non-finite entries, a bound above the
   tolerance with a vanishing confirming minor, rel = 0) enumerates the
   minors as the definition states.

5. Transported certificate. A covariation scales whole rows or columns of a
   statement block, so a swept block is T = D_r M D_c with diagonal D_r,
   D_c whose entries are products of factors. With the base's Y, put
   Y_T = D_c,C^-1 Y D_c,B (D_c,C and D_c,B the C and B parts of D_c) and
   N_T = T_{:,C} [Y_T, I]. Then N_T = D_r M_{:,C} D_c,C [D_c,C^-1 Y D_c,B, I]
   = D_r N D_c, which has rank <= |C| because N has, and T - N_T =
   D_r E D_c. With d = max|D_r| max|D_c| (moduli, so negative factors
   count), |D_r E D_c| <= d s and |T| <= d mu entrywise. The matrix the
   check sees is fl(p sigma) with p the rounded product of at most two
   factors: it differs from T by at most gamma_2 |T| <= gamma_2 d mu, plus
   an absolute underflow error below 2 eta (1 + mu), eta the smallest
   subnormal, on each entry. Hence step 2's lemma and rounding analysis
   hold for the computed block with
       s_T = d (s + gamma_2 mu) + tiny (1 + mu),
       mu_T = d mu (1 + gamma_2) + tiny (1 + mu),
   and _certified(k, s_T, mu_T, rel) proves every computed minor passes.
   Each scale entry is a factor product rounded at most once and d one
   more product, so the exact d is at most the computed one times
   (1 + gamma_3) when that is a normal double, and below the smallest
   normal double otherwise; d is taken as at least that, and s_T and mu_T
   carry a (1 + gamma_12) pad for these roundings and their own. The
   exact bound grows with d, and the computed one covers the exact one,
   so one certified d certifies every smaller d: a sweep bisects its
   sorted scales instead of testing each.

Steps 1-3 run on a stack of matrices at once (decide_stack): one batched
svd, solve and matmul give every matrix's certificate, _certified is
applied to each, and iter_minors evaluates the confirming minors of the
matrices that share (a, b) as one stack. ci_holds and certificate are stacks
of one, so this arithmetic exists once, and every minor the check evaluates
comes from iter_minors.

A failing statement's witness is the first non-vanishing minor in
enumeration order. It is found by early-exit enumeration when it is first
read, so a verdict that is only tested for truth costs no enumeration.
"""

from __future__ import annotations

import bisect
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
)

_U = float(np.finfo(float).eps) / 2
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class CIStatement:
    """left ⫫ right | given, as disjoint 0-based index tuples. The hash is
    computed once, at construction: memo keys that hold a model's
    statements hash each of them on every lookup."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    given: tuple[int, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_hash", hash((self.left, self.right, self.given)))

    def __hash__(self) -> int:
        return self._hash

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
    _check_dim(cov, stmt)
    rows, cols = stmt.block_rows, stmt.block_cols
    return Block(rows, cols, cov[np.ix_(rows, cols)])


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


# Covers the rounding of the scale d and of s_T and mu_T (step 5).
_TRANSPORT_PAD = 1 + _gamma(12)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Step 2's bounds on one statement's block: every residual is at most s
    and every entry at most mu in magnitude."""

    order: int
    s: float
    mu: float

    def holds_scaled(self, d: np.ndarray, rel: float) -> np.ndarray:
        """Step 5 for a stack of scalings D_r M D_c, given as their d =
        max|D_r| max|D_c| (each diagonal entry a factor product rounded at
        most once): True where the scaled block is certified."""
        d = np.maximum(d, _TINY)
        scales = sorted(set(d.tolist()))
        lift = _TINY * (1 + self.mu)

        def fails(x) -> bool:
            x = float(x) * (1 + _gamma(3))
            s = x * (self.s + _gamma(2) * self.mu) * _TRANSPORT_PAD + lift
            mu = x * self.mu * (1 + _gamma(2)) * _TRANSPORT_PAD + lift
            return not _certified(self.order, s, mu, rel)

        cut = bisect.bisect_left(scales, True, key=fails)
        return d <= scales[cut - 1] if cut else np.zeros(len(d), dtype=bool)


def marginal_holds(covs: np.ndarray, stmt: CIStatement, tol: TolerancePolicy) -> np.ndarray:
    """Step 1 on a matrix or a stack of them (..., n, n): the verdict of a
    statement with empty C on each."""
    v = np.abs(covs.take(stmt.left, axis=-2).take(stmt.right, axis=-1))
    return (v <= tol.rel * np.maximum(1.0, v)).all(axis=(-2, -1))


def _certify(covs: np.ndarray, stmt: CIStatement):
    """Step 2 on a stack of matrices (m, n, n) for a statement with non-empty
    C: the indices of the matrices whose block is finite and whose Sigma_CC
    passes the RCOND_LIMIT rule, and their s (not finite where the bound is
    not), mu and computed residuals Sigma_AB - Sigma_AC Y. Callers turn
    numpy's floating-point warnings off."""
    a, b, c = stmt.left, stmt.right, stmt.given
    na, nb = len(a), len(b)
    # the statement blocks with rows A then C and columns B then C
    blocks = covs.take(a + c, axis=-2).take(b + c, axis=-1)
    size = np.abs(blocks)
    mu = size.max(axis=(1, 2))
    live = np.isfinite(mu).nonzero()[0]
    live = live[rcond(blocks[:, na:, nb:].take(live, axis=0)) >= RCOND_LIMIT]
    blocks, size = blocks.take(live, axis=0), size.take(live, axis=0)
    y = np.linalg.solve(blocks[:, na:, nb:], blocks[:, na:, :nb])
    residual = blocks[:, :, :nb] - blocks[:, :, nb:] @ y
    allowance = _gamma(2 * len(c) + 4) * (size[:, :, :nb] + size[:, :, nb:] @ np.abs(y))
    s = (np.abs(residual) + allowance).max(axis=(1, 2))
    return live, s, mu.take(live), residual[:, :na]


def certificate(cov: np.ndarray, stmt: CIStatement, step2=None) -> Certificate | None:
    """Step 2's certificate of a statement with non-empty C on cov, or None
    when Sigma_CC fails the RCOND_LIMIT rule or a bound is not finite;
    step2 is _certify's (live, s, mu) on cov[None] where already computed."""
    if step2 is None:
        with np.errstate(all="ignore"):
            step2 = _certify(cov[None], stmt)[:3]
    live, s, mu = step2
    if not (live.size and math.isfinite(s[0])):
        return None
    return Certificate(stmt.minor_order, float(s[0]), float(mu[0]))


def _confirming_minors(covs: np.ndarray, stmt: CIStatement, residual: np.ndarray):
    """Step 3's minor of every matrix of a stack (m, n, n): the value and
    scale, from iter_minors, of the minor on rows {a}+C and columns {b}+C,
    (a, b) the largest entry of the matrix's |residual|. Matrices that share
    (a, b) go to iter_minors as one stack of blocks."""
    m, _, nb = residual.shape
    pick = np.abs(residual).reshape(m, -1).argmax(axis=1)
    value, scale = np.empty(m), np.empty(m)
    for p in set(pick.tolist()):
        at = np.flatnonzero(pick == p)
        rows = tuple(sorted(stmt.given + (stmt.left[p // nb],)))
        cols = tuple(sorted(stmt.given + (stmt.right[p % nb],)))
        block = Block(rows, cols, covs.take(at, axis=0).take(rows, axis=1).take(cols, axis=2))
        minors = list(iter_minors(block, stmt.minor_order))
        value[at] = [minor.value for minor in minors]
        scale[at] = [minor.scale for minor in minors]
    return value, scale


def decide_stack(covs: np.ndarray, stmt: CIStatement, tol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1-3 of the module docstring on a stack of matrices (m, n, n):
    each matrix's verdict, and whether those steps decided it (the verdict
    reads False where they did not)."""
    return _steps(covs, stmt, tol)[:2]


def _steps(covs: np.ndarray, stmt: CIStatement, tol: TolerancePolicy):
    """decide_stack's result and step 2's (live, s, mu) (None for an empty C)."""
    if not stmt.given:
        return marginal_holds(covs, stmt, tol), np.ones(len(covs), dtype=bool), None
    with np.errstate(all="ignore"):
        live, s, mu, residual = _certify(covs, stmt)
        k = stmt.minor_order
        certified = np.array([_certified(k, x, y, tol.rel) for x, y in zip(s.tolist(), mu.tolist())], dtype=bool)
        holds = np.zeros(len(covs), dtype=bool)
        holds[live[certified]] = True
        decided = holds.copy()
        confirm = live[~certified]
        if confirm.size:
            value, scale = _confirming_minors(covs.take(confirm, axis=0), stmt, residual[~certified])
            decided[confirm] = ~tol.vanishes(value, scale)
    return holds, decided, (live, s, mu)


def _first_witness(cov: np.ndarray, stmt: CIStatement, tol: TolerancePolicy) -> Minor | None:
    for minor in iter_minors(statement_block(cov, stmt), stmt.minor_order):
        if not tol.minor_is_zero(minor):
            return minor
    return None


def _decide(cov: np.ndarray, stmt: CIStatement, tol: TolerancePolicy) -> bool | None:
    """The verdict when steps 1-3 of the module docstring decide it, else None."""
    holds, decided = decide_stack(cov[None], stmt, tol)
    return bool(holds[0]) if decided[0] else None


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
) -> tuple[Certificate | None, ...]:
    """Raise ModelPreconditionError unless cov satisfies every statement, so
    that "the input was never in the model" is not reported as "the
    perturbation broke the model". Returns each statement's base
    certificate (None for an empty C or where certificate gives none). Each
    statement runs steps 1-3 once, as ci_holds does, and the certificate
    comes from that same step 2: the precondition and a sweep's transport
    of the certificates to its rows (step 5) share it."""
    cov = check_symmetric(as_matrix(cov))
    for stmt in statements:
        _check_dim(cov, stmt)
    certs = []
    for k, stmt in enumerate(statements):
        holds, decided, step2 = _steps(cov[None], stmt, tol)
        certs.append(None if step2 is None else certificate(cov, stmt, step2))
        witness = None if holds[0] else _first_witness(cov, stmt, tol)
        if decided[0] and not holds[0] or witness is not None:
            raise ModelPreconditionError(
                f"covariance does not satisfy the model: statement {k + 1} "
                f"fails with {witness.describe(names)}"
            )
    return tuple(certs)
