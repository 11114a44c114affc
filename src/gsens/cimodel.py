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

2. Certified hold. Solve Y = Sigma_CC^-1 Sigma_CB, only when the moduli lam
   of Sigma_CC's eigenvalues (its singular values: Sigma_CC is a principal
   block of a symmetric matrix) give min lam / max lam >= RCOND_LIMIT, the
   rule of matcore.inverse; a zero Sigma_CC (0/0) fails it. For |C| <= 2
   both are closed forms: a 1 x 1 Sigma_CC = d has moduli |d| and fails
   only when d = 0, and Y = Sigma_CB / d; a 2 x 2 [[p, q], [q, r]] has
   moduli |(p + r)/2 +- hypot((p - r)/2, q)|, and Y comes from Cramer's
   rule with det = pr - q^2, both taken on Sigma_CC / mu so that no
   product overflows. Above, a batched eigvalsh and solve. Let N =
   [Sigma_AC; Sigma_CC] [Y, I]. N has rank <= |C|, and E = M - N is zero
   on the C columns and holds the residuals Sigma_AB - Sigma_AC Y (the
   Schur residual Sigma_AB.C when Y is exact) and Sigma_CB - Sigma_CC Y on
   the B columns.
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
   with partial pivoting above, and the bound covers the computed
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

Steps 1-4 all run in one pass over (matrix, statement) pairs, grouped by
|C| (decide_pairs), and only this module tells them apart: a caller gets
the definition's verdict on every pair. A statement table, built once per
statement tuple and dimension and memoised, holds the statements and each
group's members and A+C and B+C index arrays, A and B padded to the
group's widest by repeating their first index; a repeated row or column
repeats entries already in the block, so mu is unchanged, s changes only by
rounding, and step 3, which picks the first largest residual, never picks
a repeat. Per group, one gather (pairs last, so that every elementwise
operation and reduction runs along the pairs) and then, for |C| <= 2, the
closed forms and elementwise residuals Sigma_XB - sum_c Sigma_Xc y_c, or,
for |C| >= 3, one batched eigvalsh, solve and matmul, give every pair's s
and mu, one _certified call decides them, and iter_minors evaluates the
confirming minors of every pair step 2 leaves open as one stack of
(|C|+1) x (|C|+1) blocks, rows and columns sorted. Step 4 enumerates
each pair still open on its statement's own block, never on the padded
one, whose repeats would add minors the definition does not have.
model_holds (and through it ci_holds and require_model) makes one such
pass, and a sweep one per block and group, so every minor the check
evaluates comes from iter_minors. Batched and padded, Y and s may differ
from a statement's own solve in their last bits; step 2's proof holds for
any computed Y, so every verdict is still the minor definition's.

A failing statement's witness is the first non-vanishing minor in
enumeration order. Step 4 keeps the one it finds; any other is found by
early-exit enumeration when it is first read, so a verdict that is only
tested for truth costs no enumeration beyond step 4's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

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
)

_U = float(np.finfo(float).eps) / 2
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class CIStatement:
    """left ⫫ right | given, as disjoint 0-based index tuples. The hash and
    the block's rows and columns are computed once, at construction: memo
    keys that hold a model's statements hash each of them on every lookup,
    and plans and statement tables read the block of each."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    given: tuple[int, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)
    block_rows: tuple[int, ...] = field(init=False, repr=False, compare=False)
    block_cols: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("left", "right", "given"):
            vals = tuple(sorted(map(int, getattr(self, name))))
            if len(set(vals)) != len(vals):
                raise ValueError(f"{name} contains duplicate indices")
            if vals and vals[0] < 0:
                raise ValueError(f"{name} contains negative indices")
            object.__setattr__(self, name, vals)
        if not self.left or not self.right:
            raise ValueError("left and right sets must be non-empty")
        all_idx = self.left + self.right + self.given
        if len(set(all_idx)) != len(all_idx):
            raise ValueError("left, right and given must be pairwise disjoint")
        object.__setattr__(self, "_hash", hash((self.left, self.right, self.given)))
        object.__setattr__(self, "block_rows", tuple(sorted(self.left + self.given)))
        object.__setattr__(self, "block_cols", tuple(sorted(self.right + self.given)))

    def __hash__(self) -> int:
        return self._hash

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
    _check_dim(cov.shape[0], stmt)
    rows, cols = stmt.block_rows, stmt.block_cols
    return Block(rows, cols, cov[np.ix_(rows, cols)])


def _check_dim(n: int, stmt: CIStatement):
    if stmt.max_index >= n:
        raise IndexError(f"statement index {stmt.max_index + 1} out of range for dimension {n}")


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Group(NamedTuple):
    """The statements of a table that share |C| = order - 1, in table order,
    members holding their positions in the table. rows holds each one's A,
    padded to the group's widest A by repeating its first index, then its
    C; cols its B, padded likewise, then its C. width is (widest A, widest
    B), and flat holds each block's entries as indices into a flattened n x
    n matrix, statements last: (wa + c, wb + c, statements)."""

    order: int
    width: tuple[int, int]
    members: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray


class _Part(NamedTuple):
    """Pairs of one group for _decide: their positions in the pair list,
    their statements' slots in the group, their matrices, and their blocks'
    entries as indices into the flattened stack of matrices, pairs last:
    each operation on the gathered blocks then runs along the pairs, where
    a pair's block has a handful of entries."""

    group: _Group
    pairs: np.ndarray
    slot: np.ndarray
    at: np.ndarray
    index: np.ndarray


class StatementTable(NamedTuple):
    """A statement tuple arranged for decide_pairs: the statements, their
    groups by |C|, each statement's group and slot within it, its block rows
    and columns as 0/1 indicators (statements, n), and every statement on
    one matrix as the parts of _decide. Every array is read-only."""

    statements: tuple[CIStatement, ...]
    groups: tuple[_Group, ...]
    group: np.ndarray
    slot: np.ndarray
    rows_of: np.ndarray
    cols_of: np.ndarray
    every: tuple[_Part, ...]


@functools.lru_cache(maxsize=64)
def statement_table(statements: tuple[CIStatement, ...], n: int) -> StatementTable:
    """The table of a statement tuple on n variables, memoised; an
    IndexError names the first statement out of range."""
    for stmt in statements:
        _check_dim(n, stmt)
    sizes = sorted({len(stmt.given) for stmt in statements})
    group, slot = np.zeros(len(statements), dtype=np.intp), np.zeros(len(statements), dtype=np.intp)
    groups, every = [], []
    for g, size in enumerate(sizes):
        members = np.array([k for k, stmt in enumerate(statements) if len(stmt.given) == size])
        group[members], slot[members] = g, np.arange(len(members))
        stmts = [statements[k] for k in members.tolist()]
        wa, wb = max(len(s.left) for s in stmts), max(len(s.right) for s in stmts)
        rows = np.array([s.left + s.left[:1] * (wa - len(s.left)) + s.given for s in stmts], dtype=np.intp)
        cols = np.array([s.right + s.right[:1] * (wb - len(s.right)) + s.given for s in stmts], dtype=np.intp)
        flat = rows.T[:, None, :] * n + cols.T[None, :, :]
        groups.append(_Group(size + 1, (wa, wb), *map(_read_only, (members, rows, cols, flat))))
        every.append(_Part(groups[-1], *map(_read_only, (members, slot[members], 0 * members, flat))))
    rows_of, cols_of = np.zeros((2, len(statements), n))
    for k, stmt in enumerate(statements):
        rows_of[k, stmt.block_rows] = cols_of[k, stmt.block_cols] = 1.0
    return StatementTable(statements, tuple(groups), *map(_read_only, (group, slot, rows_of, cols_of)), tuple(every))


def _gamma(n: int) -> float:
    """Bound on the relative error of n roundings, n u / (1 - n u)."""
    return n * _U / (1 - n * _U)


def _bound(k: int, sigma, nu):
    """The lemma's bound on a k x k determinant, padded for rounding,
    elementwise (inf where it overflows)."""
    pad = 1 + 1000 * k * (k + 2) * _U
    return pad * k ** ((k + 2) / 2) * sigma * np.power(nu + sigma, k - 1.0) + _TINY


def _certified(k: int, s, mu, rel: float):
    """True where every computed k-minor provably passes the tolerance,
    elementwise over s and mu (floats or arrays). Callers turn numpy's
    floating-point warnings off."""
    if k <= 3:
        if math.factorial(k) * _gamma(3 * k) > rel / 2:
            return np.zeros(np.shape(s), dtype=bool)
        return _bound(k, s, mu) <= rel / 2
    d = _gamma(k) * 2**k * mu
    return _bound(k, s + d, mu + d) <= rel


def _certify(blocks: np.ndarray, width: tuple[int, int]):
    """Step 2 on a group's gathered blocks (wa + c, wb + c, m), pairs last,
    rows A then C and columns B then C with c > 0: the indices of the blocks
    that are finite and whose Sigma_CC passes step 2's eigenvalue rule, and
    their s (not finite where the bound is not), mu and computed residuals
    Sigma_AB - Sigma_AC Y (wa, wb, m), padded rows and columns included.
    Callers turn numpy's floating-point warnings off."""
    wa, wb = width
    c = blocks.shape[0] - wa
    size = np.abs(blocks)
    mu = size.max(axis=(0, 1))
    live = np.isfinite(mu).nonzero()[0]
    if len(live) < len(mu):
        blocks, size, mu = blocks[..., live], size[..., live], mu[live]
    if c > 2:
        # LAPACK and matmul take one matrix per pair: pairs first
        blocks = blocks.transpose(2, 0, 1).copy()
        lam = np.abs(np.linalg.eigvalsh(blocks[:, wa:, wb:]))
        kept = lam.min(axis=1) / lam.max(axis=1) >= RCOND_LIMIT
        if not kept.all():
            live, blocks, mu = live[kept], blocks[kept], mu[kept]
        y = np.linalg.solve(blocks[:, wa:, wb:], blocks[:, wa:, :wb])
        residual = blocks[:, :, :wb] - blocks[:, :, wb:] @ y
        sums = np.abs(blocks[:, :, :wb]) + np.abs(blocks[:, :, wb:]) @ np.abs(y)
        s = (np.abs(residual) + _gamma(2 * c + 4) * sums).max(axis=(1, 2))
        return live, s, mu, residual[:, :wa].transpose(1, 2, 0)
    cc, cb = blocks[wa:, wb:], blocks[wa:, :wb]
    if c == 1:
        # the moduli are |d| twice: |d| / |d| fails the rule only as 0 / 0
        d = cc[0, 0]
        kept, y = d != 0, [cb[0] / d]
    else:
        # Sigma_CC / mu, whose products cannot overflow, has moduli
        # |(p + r) / 2 +- hypot((p - r) / 2, q)|; Y by Cramer's rule
        p, q, t, r = (cc / mu).reshape(4, -1)
        mid, half = np.abs(p + r) / 2, np.hypot((p - r) / 2, t)
        kept = np.abs(mid - half) / (mid + half) >= RCOND_LIMIT
        det = (p * r - q * t) * mu
        y = [(r * cb[0] - q * cb[1]) / det, (p * cb[1] - t * cb[0]) / det]
    # Sigma_XB - sum_c Sigma_Xc y_c and its sum of magnitudes, elementwise
    residual, sums = blocks[:, :wb], size[:, :wb]
    for j, row in enumerate(y):
        residual = residual - blocks[:, wb + j, None] * row
        sums = sums + size[:, wb + j, None] * np.abs(row)
    if not kept.all():
        live, mu, residual, sums = live[kept], mu[kept], residual[..., kept], sums[..., kept]
    s = (np.abs(residual) + _gamma(2 * c + 4) * sums).max(axis=(0, 1))
    return live, s, mu, residual[:wa]


def _confirm(covs: np.ndarray, group: _Group, slot: np.ndarray, at: np.ndarray, residual: np.ndarray):
    """Step 3 on pairs of one group, statement group slot[p] on matrix
    covs[at[p]]: the value and scale, from iter_minors, of the minor on rows
    {a}+C and columns {b}+C, (a, b) the largest entry of the pair's
    |residual| (wa, wb, m), the first in row-major order (so a padded row or
    column, a repeat of one before it, is never chosen over it). The pairs'
    minors go to iter_minors as one stack of blocks, whose indices are
    positions: each pair's own rows and columns, sorted, are gathered here."""
    wa, wb, m = residual.shape
    k = group.order
    a, b = np.divmod(np.abs(residual).reshape(-1, m).argmax(axis=0), wb)
    # each pair's rows {a}+C, then its columns {b}+C, sorted
    ends = np.concatenate((group.rows[slot, wa - 1 :], group.cols[slot, wb - 1 :]))
    ends[:m, 0], ends[m:, 0] = group.rows[slot, a], group.cols[slot, b]
    ends.sort(axis=1)
    block = Block(tuple(range(k)), tuple(range(k)), covs[at[:, None, None], ends[:m, :, None], ends[m:, None, :]])
    minors = list(iter_minors(block, k))
    return np.array([minor.value for minor in minors]), np.array([minor.scale for minor in minors])


def decide_pairs(covs: np.ndarray, table: StatementTable, at: np.ndarray, which: np.ndarray, tol: TolerancePolicy):
    """The verdict of the minor definition on each pair (matrix covs[at[p]],
    statement which[p] of the table) of a stack (m, n, n), one pass per
    group (steps 1-4 of the module docstring)."""
    size = covs.shape[-1] ** 2
    group_of = table.group[which]
    parts = []
    for g, group in enumerate(table.groups):
        pairs = (group_of == g).nonzero()[0]
        if pairs.size:
            slot, mats = table.slot[which[pairs]], at[pairs]
            parts.append(_Part(group, pairs, slot, mats, group.flat[:, :, slot] + mats * size))
    return _decide(covs, table.statements, parts, len(at), tol)[0]


def _decide(covs: np.ndarray, statements: tuple[CIStatement, ...], parts, count: int, tol: TolerancePolicy):
    """Whether each of count pairs, given as parts of a table of statements,
    holds, and the witness (None where it holds) of each pair step 4
    enumerated, by pair."""
    holds, found = np.zeros(count, dtype=bool), {}
    with np.errstate(all="ignore"):
        for group, pairs, slot, at, index in parts:
            blocks = covs.take(index)
            if group.order == 1:
                v = np.abs(blocks)
                holds[pairs] = (v <= tol.rel * np.maximum(1.0, v)).all(axis=(0, 1))
                continue
            live, s, mu, residual = _certify(blocks, group.width)
            certified = _certified(group.order, s, mu, tol.rel)
            holds[pairs[live[certified]]] = True
            # step 4 on every pair that steps 2 and 3 leave open
            open_ = np.ones(len(pairs), dtype=bool)
            open_[live[certified]] = False
            if not certified.all():
                unsure = live[~certified]
                value, scale = _confirm(covs, group, slot[unsure], at[unsure], residual[..., ~certified])
                open_[unsure[~tol.vanishes(value, scale)]] = False
            for p in open_.nonzero()[0].tolist():
                pair = int(pairs[p])
                found[pair] = _first_witness(covs[at[p]], statements[group.members[slot[p]]], tol)
                holds[pair] = found[pair] is None
    return holds, found


def _first_witness(cov: np.ndarray, stmt: CIStatement, tol: TolerancePolicy) -> Minor | None:
    for minor in iter_minors(statement_block(cov, stmt), stmt.minor_order):
        if not tol.minor_is_zero(minor):
            return minor
    return None


def ci_holds(cov, stmt: CIStatement, tol: TolerancePolicy = DEFAULT_TOL) -> CICheck:
    """Check one statement (see the module docstring for how)."""
    return model_holds(cov, (stmt,), tol).checks[0]


def model_holds(
    cov, statements: Sequence[CIStatement], tol: TolerancePolicy = DEFAULT_TOL
) -> ModelCheck:
    """ci_holds for every statement, with cov validated once and every
    statement decided in one grouped pass."""
    cov = check_symmetric(as_matrix(cov))
    table = statement_table(tuple(statements), len(cov))
    statements = table.statements
    holds, found = _decide(cov[None], statements, table.every, len(statements), tol)
    # a witness step 4 found is kept; any other is enumerated when first read
    return ModelCheck(tuple(
        CICheck(h, functools.partial(found.get, k) if k in found else functools.partial(_first_witness, cov, stmt, tol))
        for k, (stmt, h) in enumerate(zip(statements, holds.tolist()))
    ))


def require_model(
    cov, statements: Sequence[CIStatement], tol: TolerancePolicy, names: Sequence[str] | None
) -> None:
    """Raise ModelPreconditionError unless cov satisfies every statement, so
    that "the input was never in the model" is not reported as "the
    perturbation broke the model"; the first failing statement is named."""
    failure = model_holds(cov, statements, tol).first_failure
    if failure is not None:
        k, witness = failure
        raise ModelPreconditionError(
            f"covariance does not satisfy the model: statement {k + 1} fails with {witness.describe(names)}"
        )
