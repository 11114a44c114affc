"""Dissimilarity between original and perturbed Gaussians.

KL divergence in the general two-Gaussian form, the additive-perturbation
form, and the multiplicative (plan) form; Frobenius norm as the sum of
squared entrywise covariance differences. KL values are in nats.

KL here requires computability (invertible base covariance, positive
determinant of the perturbed one) rather than cone membership: a perturbed
matrix can stray outside the PSD cone while the trace/log-det expression is
still well defined, and admissibility is decided separately by one
rule (evaluate). Exactly identical inputs short-circuit to 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cimodel import CIStatement
from .covariation import PerturbationPlan, Scheme, Variation, build_plan
from .errors import GsensError, InadmissibleError, SingularMatrixError
from .matcore import DEFAULT_TOL, TolerancePolicy, as_matrix, check_symmetric, inverse, is_psd


def _as_mean(mean, n: int) -> np.ndarray:
    if mean is None:
        return np.zeros(n)
    m = np.asarray(mean, dtype=float).reshape(-1)
    if m.shape != (n,):
        raise ValueError(f"mean has length {m.shape[0]}, expected {n}")
    return m


def _logdet_or_raise(cov: np.ndarray, what: str) -> float:
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise InadmissibleError(f"{what} has non-positive determinant; KL is undefined")
    return float(logdet)


def kl_gaussian(mean, cov, mean_new, cov_new) -> float:
    """KL of the (mean_new, cov_new) Gaussian from the (mean, cov) one:

        0.5 * ( tr(cov^-1 cov_new) + dm' cov^-1 dm - n + ln det(cov)/det(cov_new) )
    """
    cov = check_symmetric(as_matrix(cov, "cov"), "cov")
    cov_new = check_symmetric(as_matrix(cov_new, "cov_new"), "cov_new")
    n = cov.shape[0]
    if cov_new.shape[0] != n:
        raise ValueError(f"dimension mismatch: {n} vs {cov_new.shape[0]}")
    mean = _as_mean(mean, n)
    mean_new = _as_mean(mean_new, n)
    if np.array_equal(cov, cov_new) and np.array_equal(mean, mean_new):
        return 0.0
    prec = inverse(cov)
    logdet0 = _logdet_or_raise(cov, "base covariance")
    logdet1 = _logdet_or_raise(cov_new, "perturbed covariance")
    dm = mean - mean_new
    return 0.5 * (float(np.trace(prec @ cov_new)) + float(dm @ prec @ dm) - n + logdet0 - logdet1)


def kl_additive(cov, cov_shift, mean_shift=None) -> float:
    """KL of the additively perturbed Gaussian (mean+d, cov+D) from the
    original, computed from the shifts alone:

        0.5 * ( tr(cov^-1 D) + d' cov^-1 d + ln det(cov)/det(cov+D) )
    """
    cov = check_symmetric(as_matrix(cov, "cov"), "cov")
    shift = check_symmetric(as_matrix(cov_shift, "cov shift"), "cov shift")
    n = cov.shape[0]
    if shift.shape[0] != n:
        raise ValueError(f"dimension mismatch: {n} vs {shift.shape[0]}")
    d = _as_mean(mean_shift, n)
    if not shift.any() and not d.any():
        return 0.0
    prec = inverse(cov)
    logdet0 = _logdet_or_raise(cov, "base covariance")
    logdet1 = _logdet_or_raise(cov + shift, "perturbed covariance")
    return 0.5 * (float(np.trace(prec @ shift)) + float(d @ prec @ d) + logdet0 - logdet1)


def kl_mp(cov, plan: PerturbationPlan) -> float:
    """KL of the plan-perturbed Gaussian from the original (zero means):

        0.5 * ( tr(cov^-1 (P o cov)) - n + ln det(cov)/det(P o cov) )
    """
    cov = check_symmetric(as_matrix(cov, "cov"), "cov")
    target = plan.apply(cov)
    if np.array_equal(cov, target):
        return 0.0
    n = cov.shape[0]
    prec = inverse(cov)
    logdet0 = _logdet_or_raise(cov, "base covariance")
    logdet1 = _logdet_or_raise(target, "perturbed covariance")
    return 0.5 * (float(np.trace(prec @ target)) - n + logdet0 - logdet1)


def kl_total_closed(n: int, delta: float) -> float:
    """Closed form for a total covariation, which rescales the whole
    covariance by delta: 0.5 * n * (delta - ln(delta) - 1).

    For a composition of total factors, delta is the product of the
    factors. Zero exactly at delta = 1.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    delta = float(delta)
    if delta <= 0:
        raise ValueError("total covariation factor must be positive")
    if delta == 1.0:
        return 0.0
    return 0.5 * n * (delta - np.log(delta) - 1.0)


def frobenius(cov, cov_new) -> float:
    """Sum of squared entrywise differences of the two covariance matrices."""
    a = as_matrix(cov, "cov")
    b = as_matrix(cov_new, "cov_new")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(((a - b) ** 2).sum())


def frobenius_mp(cov, plan: PerturbationPlan) -> float:
    """Frobenius norm of a plan perturbation: per entry ((1 - p_ij) s_ij)^2,
    evaluated as (s_ij - p_ij s_ij)^2 so it agrees with frobenius() bitwise."""
    cov = as_matrix(cov, "cov")
    return float(((cov - plan.apply(cov)) ** 2).sum())


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


def evaluate(
    label: str, cov: np.ndarray, change, tol: TolerancePolicy
) -> tuple[np.ndarray, DivergenceReport]:
    """The perturbed covariance and its report, for a change that is either a
    PerturbationPlan (KL by kl_mp) or an additive shift D (KL by kl_additive).

    The admissibility rule: the perturbed matrix must be PSD, and then its KL
    computable; a KL that raises InadmissibleError or SingularMatrixError
    (the PSD boundary, where the determinant is zero) demotes the point to
    inadmissible. KL is reported exactly for admissible points.
    """
    if isinstance(change, PerturbationPlan):
        target = change.apply(cov)
        frob = frobenius_mp(cov, change)
        kl = kl_mp
    else:
        target = cov + change
        frob = frobenius(cov, target)
        kl = kl_additive
    if is_psd(target, tol.rel):
        try:
            return target, DivergenceReport(label, kl(cov, change), frob, True)
        except (InadmissibleError, SingularMatrixError):
            pass
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
    cov,
    position: tuple[int, int],
    delta: float,
    stmt: CIStatement,
    tol: TolerancePolicy = DEFAULT_TOL,
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
        kind: evaluate(kind, cov, build_plan(variation, Scheme(kind, None, 0), (stmt,)), tol)[1]
        for kind in ("total", "partial", "row", "column")
    }
    shift = additive_shift(cov, (position,), (delta,))
    reports["standard"] = evaluate("standard", cov, shift, tol)[1]

    slack = 1e-12 * max(1.0, reports["total"].frobenius)
    for big, small in FROBENIUS_ORDER:
        if reports[big].frobenius < reports[small].frobenius - slack:
            raise GsensError(f"Frobenius ordering violated: {big} < {small}")
    return tuple(reports.values())
