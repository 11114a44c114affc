"""Dissimilarity between original and perturbed Gaussians.

One spectral core, kl, serves every change D of a covariance Sigma: the
standard additive change, where D is additive_shift itself, and every plan
(total, partial, row, column or a composition), where D = (P - 1) o Sigma
for the plan's product P. With Sigma = L L' and nu the eigenvalues of
L^-1 D L^-T, the perturbed covariance is L (I + L^-1 D L^-T) L', so

    KL = 0.5 * sum_i (nu_i - log1p(nu_i))

in nats; each term is >= 0, and every one is exactly 0 when D is 0. A
change is admissible iff Sigma passes the reciprocal-condition rule of
matcore.check_invertible and every 1 + nu_i > 0, i.e. Sigma + D is
positive definite. kl_additive, kl_mp and frobenius_mp only form D or
P o Sigma, under the layer names the benchmark's per-layer trace times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cimodel import CIStatement
from .covariation import PerturbationPlan, Scheme, Variation, build_plan
from .errors import GsensError, InadmissibleError, SingularMatrixError
from .matcore import as_matrix, check_invertible, check_symmetric

# Below this |nu|, nu - log1p(nu) would lose up to log10(2 / |nu|) digits to
# cancellation; the series (nu - log1p(nu)) / nu^2 = 1/2 - nu/3 + nu^2/4 - ...,
# cut after 15 terms (highest power first, for Horner), is exact to 1e-16 there.
SERIES_RADIUS = 0.1
_SERIES = tuple((-1) ** k / (k + 2) for k in reversed(range(15)))


def _excess(nu: float) -> float:
    """nu - log1p(nu), to rounding accuracy for every nu > -1."""
    if abs(nu) >= SERIES_RADIUS:
        return nu - math.log1p(nu)
    acc = 0.0
    for c in _SERIES:
        acc = acc * nu + c
    return acc * nu * nu


def kl(cov, shift) -> float:
    """KL divergence (nats) of N(0, cov + shift) from N(0, cov), from the
    eigenvalues nu of L^-1 shift L^-T with cov = L L'.

    Raises SingularMatrixError when cov fails check_invertible, and
    InadmissibleError when cov or cov + shift is not positive definite.
    """
    cov = check_symmetric(as_matrix(cov, "cov"), "cov")
    shift = check_symmetric(as_matrix(shift, "shift"), "shift")
    if shift.shape != cov.shape:
        raise ValueError(f"dimension mismatch: {cov.shape} vs {shift.shape}")
    try:
        whiten = np.linalg.inv(np.linalg.cholesky(check_invertible(cov)))
    except np.linalg.LinAlgError:
        raise InadmissibleError("base covariance is not positive definite; KL is undefined") from None
    nu = np.linalg.eigvalsh(whiten @ shift @ whiten.T)
    if not (nu > -1.0).all():
        raise InadmissibleError("perturbed covariance is not positive definite; KL is undefined")
    return 0.5 * sum(_excess(v) for v in nu.tolist())


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
    """frobenius of a plan's target P o cov, bitwise what evaluate reports."""
    return frobenius(cov, plan.apply(as_matrix(cov, "cov")))


def additive_shift(cov: np.ndarray, positions, deltas) -> np.ndarray:
    """The standard method's change matched to a multiplicative variation:
    d_ij = d_ji = (delta - 1) s_ij at each varied position, zero elsewhere."""
    shift = np.zeros_like(cov)
    for (i, j), d in zip(positions, deltas):
        shift[i, j] += (d - 1.0) * cov[i, j]
        if i != j:
            shift[j, i] += (d - 1.0) * cov[j, i]
    return shift


@dataclass(frozen=True)
class DivergenceReport:
    """One scheme's divergence numbers at a single grid point."""

    scheme: str
    kl: float | None
    frobenius: float
    admissible: bool


def evaluate(label: str, cov: np.ndarray, change) -> tuple[np.ndarray, DivergenceReport]:
    """The perturbed covariance and its report, for a change that is either a
    PerturbationPlan with product P (target P o cov, KL by kl_mp) or an
    additive shift D (target cov + D, KL by kl_additive).

    The point is admissible iff kl is defined there (see the module
    docstring), and KL is reported exactly for admissible points.
    """
    if isinstance(change, PerturbationPlan):
        target, kl_of = change.apply(cov), kl_mp
    else:
        target, kl_of = cov + change, kl_additive
    frob = frobenius(cov, target)
    try:
        return target, DivergenceReport(label, kl_of(cov, change), frob, True)
    except (InadmissibleError, SingularMatrixError):
        return target, DivergenceReport(label, None, frob, False)


# (larger, smaller) Frobenius pairs implied by containment of the changed
# entry sets
FROBENIUS_ORDER = (
    ("total", "partial"),
    ("partial", "row"),
    ("partial", "column"),
    ("row", "standard"),
    ("column", "standard"),
)


def scheme_ordering(
    cov, position: tuple[int, int], delta: float, stmt: CIStatement
) -> tuple[DivergenceReport, ...]:
    """Frobenius/KL for all four covariation schemes plus the matched
    additive change d_ij = (delta - 1) s_ij at the same position.

    The Frobenius ordering total >= partial >= row, partial >= column,
    row >= standard, column >= standard holds by containment of the changed
    entry sets and is re-checked on every call; a violation raises
    GsensError.
    """
    cov = check_symmetric(as_matrix(cov, "cov"), "cov")
    i, j = position
    variation = Variation(cov.shape[0], ((i, j, float(delta)),))
    reports = {
        kind: evaluate(kind, cov, build_plan(variation, Scheme(kind, None, 0), (stmt,)))[1]
        for kind in ("total", "partial", "row", "column")
    }
    shift = additive_shift(cov, (position,), (delta,))
    reports["standard"] = evaluate("standard", cov, shift)[1]

    slack = 1e-12 * max(1.0, reports["total"].frobenius)
    for big, small in FROBENIUS_ORDER:
        if reports[big].frobenius < reports[small].frobenius - slack:
            raise GsensError(f"Frobenius ordering violated: {big} < {small}")
    return tuple(reports.values())
