"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gsens import CIStatement, GaussianDag, dag_ci_statements, dag_to_gaussian, iter_minors, statement_block
from gsens.divergence import whitener

# Four-variable toy network: chain 1->2->3 plus a child 4 of everyone.
SIGMA4 = np.array(
    [
        [1.0, 2.0, 2.0, 7.0],
        [2.0, 5.0, 5.0, 17.0],
        [2.0, 5.0, 6.0, 19.0],
        [7.0, 17.0, 19.0, 63.0],
    ]
)
DAG4_EDGES = ((0, 1, 2.0), (1, 2, 1.0), (0, 3, 1.0), (1, 3, 1.0), (2, 3, 2.0))
STMT4 = CIStatement(left=(2,), right=(0,), given=(1,))

# Five-variable model with two overlapping statements sharing the (3,3) entry
# (1-based): 4 _||_ {1,2} | 3 and {2,4} _||_ 5 | 3.
STMT5_A = CIStatement(left=(3,), right=(0, 1), given=(2,))
STMT5_B = CIStatement(left=(1, 3), right=(4,), given=(2,))


def filled(n: int, rows, cols, value: float) -> np.ndarray:
    """Expected plan product: value on rows x cols and on its mirror, ones
    elsewhere, set cell by cell."""
    out = np.ones((n, n))
    for r in rows:
        for c in cols:
            out[r, c] = out[c, r] = value
    return out


def by_scheme(table, column: str) -> dict[str, np.ndarray]:
    """One column of a sweep table split by scheme label, each part in grid
    order, schemes in declared order."""
    labels = np.array(table.scheme)
    return {s: getattr(table, column)[labels == s] for s in dict.fromkeys(table.scheme)}


def kl_dense(cov, target) -> float:
    """Dense trace/log-det KL of N(0, target) from N(0, cov):
    0.5 * (tr(cov^-1 target) - n + ln det cov - ln det target); both
    determinants must be positive."""
    (s0, logdet0), (s1, logdet1) = np.linalg.slogdet(cov), np.linalg.slogdet(target)
    assert s0 > 0 and s1 > 0, "KL needs positive determinants"
    return 0.5 * (float(np.trace(np.linalg.solve(cov, target))) - len(cov) + logdet0 - logdet1)


def kl_within_rounding(cov, shift, got, want) -> bool:
    """Whether a KL and admissible flag, got = (kl, admissible), are the
    definition's, want (kl NaN where inadmissible), up to the rounding of
    the change's spectrum. Each eigenvalue of nu = eigvalsh(W shift W'),
    W = L^-1 (divergence.whitener), moves by at most 64 n eps times the
    largest row sum of |W| |shift| |W'| on either of divergence.kl_stack's
    ways (the per-row eigvalsh, or c lam on a mask's spectrum). So the flags
    may differ only where the smallest 1 + nu lies within that bound of 0
    (the factor within rounding of the endpoint 1 - 1/lam), and two KL
    values by at most the bound times sum |nu_i| / (1 + nu_i), the
    first-order change of sum 0.5 (nu_i - log1p(nu_i)), plus 1e-13
    relative."""
    (value, admissible), (exact, definite) = got, want
    if admissible == definite and (value == exact if admissible else value != value):
        return True
    whiten = whitener(cov)
    if whiten is None or not np.isfinite(shift).all():
        return False
    size = np.abs(whiten)
    with np.errstate(all="ignore"):
        bound = 64 * len(cov) * np.finfo(float).eps * (size @ np.abs(shift) @ size.T).sum(axis=1).max()
        nu = np.linalg.eigvalsh(whiten @ shift @ whiten.T)
    if admissible != definite:
        return bool(abs(1.0 + nu.min()) <= bound)
    return bool(abs(value - exact) <= 1e-13 * abs(exact) + bound * (np.abs(nu) / (1.0 + nu)).sum())


@pytest.fixture
def sigma4():
    return SIGMA4.copy()


@pytest.fixture
def stmt4():
    return STMT4


@pytest.fixture
def dag4():
    return GaussianDag.from_edges(4, DAG4_EDGES)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_dag(
    rng: np.random.Generator, n: int | None = None, edge_prob: float = 0.5, beta_max: float = 2.0
) -> GaussianDag:
    """Random DAG with natural topological order, coefficients in
    [-beta_max, beta_max] and conditional variances in [0.5, 2]."""
    if n is None:
        n = int(rng.integers(2, 7))
    edges = []
    for child in range(1, n):
        for parent in range(child):
            if rng.random() < edge_prob:
                beta = float(rng.uniform(-beta_max, beta_max))
                edges.append((parent, child, beta))
    cond_vars = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=n))
    return GaussianDag.from_edges(n, edges, cond_vars=cond_vars)


def random_dag_with_statement(rng: np.random.Generator):
    """Random DAG model guaranteed to imply at least one CI statement,
    returned as (covariance, statements)."""
    while True:
        dag = random_dag(rng)
        statements = dag_ci_statements(dag)
        if statements:
            _, cov = dag_to_gaussian(dag)
            return cov, statements


def model5(rng: np.random.Generator) -> np.ndarray:
    """Random covariance satisfying both five-variable statements: built from
    a DAG whose vertex-4 parents are {3} and vertex-5 parents are {3}
    (1-based), so the implied independences contain both statements."""
    edges = [
        (0, 1, float(rng.uniform(0.5, 2.0))),
        (0, 2, float(rng.uniform(0.5, 2.0))),
        (1, 2, float(rng.uniform(0.5, 2.0))),
        (2, 3, float(rng.uniform(0.5, 2.0))),
        (2, 4, float(rng.uniform(0.5, 2.0))),
    ]
    dag = GaussianDag.from_edges(5, edges, cond_vars=tuple(rng.uniform(0.5, 2.0, size=5)))
    _, cov = dag_to_gaussian(dag)
    return cov


_U = float(np.finfo(float).eps) / 2
_TINY = float(np.finfo(float).tiny)


def _gamma(n: int) -> float:
    return n * _U / (1 - n * _U)


def certified_scalar(k: int, s: float, mu: float, rel: float, nudge: int = 0) -> bool:
    """cimodel._certified on one (k, s, mu), in Python floats: True when
    every computed k-minor provably passes the tolerance. nudge = +-1 moves
    the bound's power one float up or down, to tell the cases that the last
    bit of a pow decides."""

    def bound(sigma, nu):
        pad = 1 + 1000 * k * (k + 2) * _U
        try:
            power = (nu + sigma) ** (k - 1)
        except OverflowError:  # float ** raises where float * gives inf
            power = math.inf
        if nudge:
            power = math.nextafter(power, nudge * math.inf)
        return pad * k ** ((k + 2) / 2) * sigma * power + _TINY

    if k <= 3:
        return math.factorial(k) * _gamma(3 * k) <= rel / 2 and bound(s, mu) <= rel / 2
    d = _gamma(k) * 2**k * mu
    return bound(s + d, mu + d) <= rel


def minor_witness(cov, stmt, tol):
    """Reference verdict: the definition itself, every minor enumerated by
    iter_minors. Returns the first non-vanishing minor, or None when the
    statement holds."""
    block = statement_block(np.asarray(cov, dtype=float), stmt)
    return next((m for m in iter_minors(block, stmt.minor_order) if not tol.minor_is_zero(m)), None)
