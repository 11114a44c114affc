"""Dissimilarity between original and perturbed Gaussians.

One spectral core, kl_stack, serves every change D of a covariance Sigma: the
standard additive change, where D is additive_shift itself, and every plan
(total, partial, row, column or a composition), where D = (P - 1) o Sigma
for the plan's product P. With Sigma = L L' and nu the eigenvalues of
L^-1 D L^-T, the perturbed covariance is L (I + L^-1 D L^-T) L', so

    KL = sum_i 0.5 * (nu_i - log1p(nu_i))

in nats; each term is >= 0, every one is exactly 0 when D is 0, and the
halved terms are summed, so a KL within the float range never overflows to
inf. A change is admissible iff Sigma passes the reciprocal-condition rule
of matcore.check_invertible and every 1 + nu_i > 0, i.e. Sigma + D is
positive definite. A change that is not finite, or whose whitened form is
not finite, is inadmissible by rule; that is decided before eigvalsh,
which reads only one triangle of its input.

kl_stack takes nu in one of two ways, for a stack of changes of one Sigma
factored once (whitener, L^-1 after the condition rule). A change c A on a
base A whose spectrum lam = eigvalsh(L^-1 A L^-T) is known (spectra) has
nu = c lam: one eigvalsh per base serves every row on it. A plan whose
steps share one mask M is such a change, with A = M o Sigma and c = f - 1
for the product f of its factors: every one-position plan, and the
standard change at one position, whose mask is the position and its
mirror. So is a two-position plan whose masks are equal (always under
total), with f = fl(delta1 delta2). A row whose |c| times its base's reach
could overflow, and every other change (the two-position standard change, a
plan whose masks differ), takes nu from one batched eigvalsh of its
whitened change, which also decides the inadmissible-by-rule cases. The
two ways round differently; for one change they agree to rounding, and
an admissible flag can differ between them only where some 1 + nu lies
within rounding of 0 (the factor within rounding of the endpoint
1 - 1/lam). kl validates its input and evaluates a stack of one on the
second way.

measure is the one evaluator behind every printed number: for a stack of
targets and their changes of one Sigma it gives each row's Frobenius
distance sum((Sigma - T)^2), and its KL and admissibility from kl_stack,
each row on its base's spectrum where it has one. Sweep blocks, the compare
table (scheme_ordering: the four plans and the matched additive change, one
stack of five on five bases, plan_spectra) and covary (a stack of one on
its plan's mask) all call it, so each prints the same KL for the same
change. kl_additive, kl_mp and frobenius_mp have no caller in src/; they
remain as the layer names the benchmark's per-layer trace binds and as
test oracles for the definitions: kl, and so kl_additive and kl_mp, take
every change on the per-row way.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .cimodel import CIStatement
from .covariation import PerturbationPlan, Scheme, Variation, build_plan
from .errors import GsensError, InadmissibleError, SingularMatrixError
from .matcore import as_matrix, check_invertible, check_symmetric

# A change c A takes its spectrum as c times its base's when |c| times the
# base's reach (spectra) is at most half the float range: the factor 2
# covers the rounding of every sum the per-row path would form.
SPECTRUM_LIMIT = np.finfo(float).max / 2

# Below this |nu|, nu - log1p(nu) would lose up to log10(2 / |nu|) digits to
# cancellation; the series (nu - log1p(nu)) / nu^2 = 1/2 - nu/3 + nu^2/4 - ...,
# cut after 15 terms (highest power first, for Horner), is exact to 1e-16 there.
SERIES_RADIUS = 0.1
_SERIES = tuple((-1) ** k / (k + 2) for k in reversed(range(15)))


def kl_of_spectrum(nu: np.ndarray) -> np.ndarray:
    """sum_i 0.5 * (nu_i - log1p(nu_i)) for every spectrum of a stack (m, n),
    with nu > -1, to rounding accuracy: the series below SERIES_RADIUS, and
    the halved terms added in eigenvalue order (halving is exact, and a sum
    within the float range stays finite)."""
    excess = np.empty_like(nu)
    big = np.abs(nu) >= SERIES_RADIUS
    values = nu[big]
    excess[big] = values - np.array([math.log1p(v) for v in values.tolist()])
    small = nu[~big]
    series = np.zeros_like(small)
    for c in _SERIES:
        series = series * small + c
    excess[~big] = series * small * small
    excess *= 0.5
    total = np.zeros(len(nu))
    for k in range(nu.shape[1]):
        total = total + excess[:, k]
    return total


def whitener(cov: np.ndarray) -> np.ndarray | None:
    """L^-1 for cov = L L', or None where cov fails check_invertible or is
    not positive definite."""
    try:
        return np.linalg.inv(np.linalg.cholesky(check_invertible(cov)))
    except (SingularMatrixError, np.linalg.LinAlgError):
        return None


def kl(cov, shift) -> float:
    """KL divergence (nats) of N(0, cov + shift) from N(0, cov), from the
    eigenvalues nu of L^-1 shift L^-T with cov = L L'.

    Raises SingularMatrixError when cov fails check_invertible, and
    InadmissibleError when cov or cov + shift is not positive definite or
    the change is not finite.
    """
    cov = check_symmetric(as_matrix(cov, "cov"), "cov")
    shift = check_symmetric(as_matrix(shift, "shift"), "shift")
    if shift.shape != cov.shape:
        raise ValueError(f"dimension mismatch: {cov.shape} vs {shift.shape}")
    whiten = whitener(cov)
    if whiten is None:
        # a singular base raises its own error; svd refuses a NaN entry
        with contextlib.suppress(np.linalg.LinAlgError):
            check_invertible(cov)
        raise InadmissibleError("base covariance is not positive definite; KL is undefined")
    values, admissible = kl_stack(whiten, shift[None])
    if not admissible[0]:
        raise InadmissibleError(
            "perturbed covariance is not positive definite, or the change is not finite; KL is undefined"
        )
    return float(values[0])


def spectra(whiten: np.ndarray, bases: np.ndarray):
    """The spectrum lam = eigvalsh(W A W') of each base A of a stack (k, n, n)
    of one cov's changes, given its whitener W, from one batched eigvalsh,
    and each base's reach, max|A| max(1, r max(1, s)) with r the largest row
    sum and s the sum of |W|. A change c A with |c| reach <= SPECTRUM_LIMIT
    is finite, and so is every partial sum of its whitened form W (c A) W':
    an entry of |W| |c A| is at most |c| max|A| r, and a row sum of
    |W| |c A| |W'| at most |c| max|A| r s, which also bounds |c lam|."""
    size = np.abs(whiten)
    reach = np.abs(bases).max(axis=(1, 2)) * max(1.0, size.sum(axis=1).max() * max(1.0, size.sum()))
    return np.linalg.eigvalsh(whiten @ bases @ whiten.T), reach


def plan_spectra(cov: np.ndarray, whiten: np.ndarray | None, plans) -> tuple | None:
    """kl_stack's scaled rows for one-step plans: a plan of factor delta on
    mask M changes cov by (delta - 1) (M o cov), one base per plan (None
    when cov has no whitener)."""
    if whiten is None:
        return None
    masks = np.array([plan.masks[0] for plan in plans])
    scales = np.array([variation.delta - 1.0 for ((variation, _),) in (plan.steps for plan in plans)])
    return *spectra(whiten, np.where(masks, cov, 0.0)), scales


def kl_stack(whiten: np.ndarray | None, shifts: np.ndarray, scaled: tuple | None = None):
    """kl for a stack of symmetric changes (m, n, n) of one cov, given its
    whitener (None where it has none): the KL values (NaN where
    inadmissible) and the admissible flags, by row.

    scaled, when given, is (lam, reach, scale) by row: the row's change is
    scale times a base of spectrum lam and reach (spectra), and a NaN scale
    marks a row without one. A row whose |scale| reach is at most
    SPECTRUM_LIMIT takes nu = scale * lam. Every other change is
    inadmissible when it or its whitened form is not finite, and the rest
    share one batched eigvalsh. Every row is inadmissible when whiten is
    None."""
    nu = np.full(shifts.shape[:-1], np.nan)
    if whiten is not None:
        rest = np.arange(len(shifts))
        if scaled is not None:
            lam, reach, scale = scaled
            on = np.abs(scale) * reach <= SPECTRUM_LIMIT
            nu[on] = scale[on, None] * lam[on]
            rest = rest[~on]
        if rest.size:
            each = shifts[rest]
            changes = whiten @ each @ whiten.T
            finite = np.isfinite(each).all(axis=(1, 2)) & np.isfinite(changes).all(axis=(1, 2))
            if finite.any():
                nu[rest[finite]] = np.linalg.eigvalsh(changes[finite])
    admissible = (nu > -1.0).all(axis=1)
    values = np.full(len(shifts), np.nan)
    values[admissible] = kl_of_spectrum(nu[admissible])
    return values, admissible


def kl_additive(cov, cov_shift) -> float:
    """kl of the standard method's additive change cov + cov_shift."""
    return kl(cov, cov_shift)


def kl_mp(cov, plan: PerturbationPlan) -> float:
    """kl of a plan's change (P - 1) o cov, for the model-preserving schemes."""
    return kl(cov, (plan.product - 1.0) * as_matrix(cov, "cov"))


def frobenius(cov, cov_new) -> float:
    """Sum of squared entrywise differences of the two covariance matrices."""
    a = as_matrix(cov, "cov")
    b = as_matrix(cov_new, "cov_new")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(((a - b) ** 2).sum())


def frobenius_mp(cov, plan: PerturbationPlan) -> float:
    """frobenius of a plan's target P o cov, bitwise what measure reports."""
    return frobenius(cov, plan.apply(as_matrix(cov, "cov")))


def additive_shift(cov: np.ndarray, positions, deltas) -> np.ndarray:
    """The standard method's change matched to a multiplicative variation:
    d_ij = d_ji = (delta - 1) s_ij at each varied position, zero elsewhere.
    With an array of factors per position, a stack of changes, one per
    array entry."""
    shift = np.zeros(np.shape(deltas[0]) + cov.shape)
    for (i, j), d in zip(positions, deltas):
        shift[..., i, j] += (d - 1.0) * cov[i, j]
        if i != j:
            shift[..., j, i] += (d - 1.0) * cov[j, i]
    return shift


def measure(
    cov: np.ndarray, whiten: np.ndarray | None, targets: np.ndarray, shifts: np.ndarray, scaled: tuple | None = None
):
    """Frobenius, KL and admissibility of every row of a stack of targets
    (m, n, n) of cov and their changes from cov, shifts, given cov's
    whitener (None where it has none) and the rows' scaled base spectra
    where they have them (kl_stack's scaled): the sums of squared entrywise
    differences, bitwise frobenius(cov, target) row by row, and kl_stack's
    KL values (NaN where inadmissible) and admissible flags."""
    frob = ((cov - targets) ** 2).reshape(len(targets), -1).sum(axis=1)
    return (frob, *kl_stack(whiten, shifts, scaled))


# (larger, smaller) Frobenius pairs implied by containment of the changed
# entry sets
FROBENIUS_ORDER = (
    ("total", "partial"),
    ("partial", "row"),
    ("partial", "column"),
    ("row", "standard"),
    ("column", "standard"),
)
# the rows of the compare table, in order
COMPARE_SCHEMES = ("total", "partial", "row", "column", "standard")


def scheme_ordering(cov, position: tuple[int, int], delta: float, stmt: CIStatement):
    """Frobenius/KL for all four covariation schemes plus the matched
    additive change d_ij = (delta - 1) s_ij at the same position: measure's
    columns (frobenius, kl, admissible), one row per COMPARE_SCHEMES entry,
    KL NaN where a row is inadmissible. Each row's change is (delta - 1)
    times its mask's base: the plan's fill, or the position for the
    standard change.

    The Frobenius ordering total >= partial >= row, partial >= column,
    row >= standard, column >= standard holds by containment of the changed
    entry sets and is re-checked on every call; a violation raises
    GsensError.
    """
    cov = check_symmetric(as_matrix(cov, "cov"), "cov")
    variation = Variation(cov.shape[0], *position, delta)
    plans = [build_plan(variation, Scheme(kind, None, 0), (stmt,)) for kind in COMPARE_SCHEMES[:-1]]
    products = np.stack([plan.product for plan in plans])
    shift = additive_shift(cov, (position,), (delta,))
    targets = np.concatenate([products * cov, (cov + shift)[None]])
    shifts = np.concatenate([(products - 1.0) * cov, shift[None]])
    # the standard change is the position-only plan's
    alone = build_plan(variation, Scheme("none"), ())
    whiten = whitener(cov)
    frob, values, admissible = measure(cov, whiten, targets, shifts, plan_spectra(cov, whiten, [*plans, alone]))

    size = dict(zip(COMPARE_SCHEMES, frob.tolist()))
    slack = 1e-12 * max(1.0, size["total"])
    for big, small in FROBENIUS_ORDER:
        if size[big] < size[small] - slack:
            raise GsensError(f"Frobenius ordering violated: {big} < {small}")
    return frob, values, admissible
