"""Dissimilarity between original and perturbed Gaussians.

One spectral core, kl_stack, serves every change D of a covariance Sigma: the
standard additive change, where D is additive_shift itself, and every plan
(total, partial, row, column or a composition), where D = (P - 1) o Sigma
for the plan's product P. With Sigma = L L' and nu the eigenvalues of
L^-1 D L^-T, the perturbed covariance is L (I + L^-1 D L^-T) L', so

    KL = 0.5 * sum_i (nu_i - log1p(nu_i))

in nats; each term is >= 0, and every one is exactly 0 when D is 0. A
change is admissible iff Sigma passes the reciprocal-condition rule of
matcore.check_invertible and every 1 + nu_i > 0, i.e. Sigma + D is
positive definite. A change that is not finite, or whose whitened form
is not finite, is inadmissible by rule; that is decided before eigvalsh,
which reads only one triangle of its input. kl_stack is the one spectral
path: for a stack of changes of one Sigma, factored once (whitener, L^-1
after the condition rule), it takes nu from one batched eigvalsh and sums
the terms with kl_of_spectrum; kl validates its input and evaluates a
stack of one.
measure is the one evaluator behind every printed number: for a stack of
targets and their changes of one Sigma it gives each row's Frobenius
distance sum((Sigma - T)^2), and its KL and admissibility from kl_stack.
Sweep blocks, the compare table (scheme_ordering: the four plans and the
matched additive change, one stack of five) and covary (a stack of one)
all call it. kl_additive, kl_mp and frobenius_mp have no caller in src/;
they remain as the layer names the benchmark's per-layer trace binds and
as test oracles for the definitions.
"""

from __future__ import annotations

import contextlib
import math

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


def kl_of_spectrum(nu: np.ndarray) -> np.ndarray:
    """0.5 * sum_i (nu_i - log1p(nu_i)) for every spectrum of a stack (m, n),
    with nu > -1, to rounding accuracy: the series below SERIES_RADIUS, and
    the terms added in eigenvalue order."""
    excess = np.empty_like(nu)
    big = np.abs(nu) >= SERIES_RADIUS
    values = nu[big]
    excess[big] = values - np.array([math.log1p(v) for v in values.tolist()])
    small = nu[~big]
    series = np.zeros_like(small)
    for c in _SERIES:
        series = series * small + c
    excess[~big] = series * small * small
    total = np.zeros(len(nu))
    for k in range(nu.shape[1]):
        total = total + excess[:, k]
    return 0.5 * total


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


def kl_stack(whiten: np.ndarray | None, shifts: np.ndarray):
    """kl for a stack of symmetric changes (m, n, n) of one cov, given its
    whitener (None where it has none): the KL values (NaN where
    inadmissible) and the admissible flags, by row. A change is inadmissible
    when it or its whitened form is not finite, and every row is when
    whiten is None; the other changes share one batched eigvalsh."""
    nu = np.full(shifts.shape[:-1], np.nan)
    if whiten is not None:
        changes = whiten @ shifts @ whiten.T
        finite = np.isfinite(shifts).all(axis=(1, 2)) & np.isfinite(changes).all(axis=(1, 2))
        if finite.any():
            nu[finite] = np.linalg.eigvalsh(changes[finite])
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


def measure(cov: np.ndarray, whiten: np.ndarray | None, targets: np.ndarray, shifts: np.ndarray):
    """Frobenius, KL and admissibility of every row of a stack of targets
    (m, n, n) of cov and their changes from cov, shifts, given cov's
    whitener (None where it has none): the sums of squared entrywise
    differences, bitwise frobenius(cov, target) row by row, and kl_stack's
    KL values (NaN where inadmissible) and admissible flags."""
    frob = ((cov - targets) ** 2).reshape(len(targets), -1).sum(axis=1)
    return (frob, *kl_stack(whiten, shifts))


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
    KL NaN where a row is inadmissible.

    The Frobenius ordering total >= partial >= row, partial >= column,
    row >= standard, column >= standard holds by containment of the changed
    entry sets and is re-checked on every call; a violation raises
    GsensError.
    """
    cov = check_symmetric(as_matrix(cov, "cov"), "cov")
    variation = Variation(cov.shape[0], *position, delta)
    kinds = COMPARE_SCHEMES[:-1]
    products = np.stack([build_plan(variation, Scheme(kind, None, 0), (stmt,)).product for kind in kinds])
    shift = additive_shift(cov, (position,), (delta,))
    targets = np.concatenate([products * cov, (cov + shift)[None]])
    shifts = np.concatenate([(products - 1.0) * cov, shift[None]])
    frob, values, admissible = measure(cov, whitener(cov), targets, shifts)

    size = dict(zip(COMPARE_SCHEMES, frob.tolist()))
    slack = 1e-12 * max(1.0, size["total"])
    for big, small in FROBENIUS_ORDER:
        if size[big] < size[small] - slack:
            raise GsensError(f"Frobenius ordering violated: {big} < {small}")
    return frob, values, admissible
