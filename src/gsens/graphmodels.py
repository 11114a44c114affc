"""Gaussian joints from DAG parameters, and the CI statements a DAG implies.

A Gaussian DAG assigns each vertex a univariate conditional
y_i = b0_i + sum_{j in pa(i)} beta_ji * y_j + noise(var_i). Stacking the
regressions gives the joint mean (I-B)^-T b0 and covariance
(I-B)^-T diag(var) (I-B)^-1, which satisfies every per-vertex statement
"i independent of its non-parent predecessors given its parents".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cimodel import CIStatement
from .errors import GsensError


class GraphModelError(GsensError):
    """Inconsistent DAG/graph specification."""


@dataclass(frozen=True)
class GaussianDag:
    """Regression parameterization of a Gaussian joint.

    edges are (parent, child, coefficient) with 0-based vertices; every
    parent must precede its child in the topological order. intercepts
    default to zero, conditional variances to one. Every number must be
    finite.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    order: tuple[int, ...]
    intercepts: tuple[float, ...]
    cond_vars: tuple[float, ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphModelError("dimension must be >= 1")
        if sorted(self.order) != list(range(self.n)):
            raise GraphModelError(f"order must be a permutation of 0..{self.n - 1}")
        if len(self.intercepts) != self.n or len(self.cond_vars) != self.n:
            raise GraphModelError("intercepts and cond_vars must have length n")
        for name, values in (("intercept", self.intercepts), ("conditional variance", self.cond_vars)):
            for k, v in enumerate(values):
                if not math.isfinite(v):
                    raise GraphModelError(f"{name} of vertex {k + 1} is {v}, not finite")
        if any(v <= 0 for v in self.cond_vars):
            raise GraphModelError("conditional variances must be positive")
        pos = {v: k for k, v in enumerate(self.order)}
        seen = set()
        for parent, child, beta in self.edges:
            if not (0 <= parent < self.n and 0 <= child < self.n):
                raise GraphModelError(f"edge ({parent},{child}) out of range")
            if parent == child:
                raise GraphModelError(f"self-loop at vertex {parent}")
            if (parent, child) in seen:
                raise GraphModelError(f"duplicate edge ({parent},{child})")
            seen.add((parent, child))
            if pos[parent] >= pos[child]:
                raise GraphModelError(
                    f"edge ({parent + 1}->{child + 1}) violates the topological order"
                )
            if not math.isfinite(beta):
                raise GraphModelError(f"edge ({parent + 1}->{child + 1}) coefficient is {beta}, not finite")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Sequence[tuple[int, int, float]],
        order: Sequence[int] | None = None,
        intercepts: Sequence[float] | None = None,
        cond_vars: Sequence[float] | None = None,
    ) -> "GaussianDag":
        return cls(
            n=n,
            edges=tuple((int(p), int(c), float(b)) for p, c, b in edges),
            order=tuple(range(n)) if order is None else tuple(int(v) for v in order),
            intercepts=(0.0,) * n if intercepts is None else tuple(map(float, intercepts)),
            cond_vars=(1.0,) * n if cond_vars is None else tuple(map(float, cond_vars)),
        )

    def parents(self, vertex: int) -> tuple[int, ...]:
        return tuple(sorted(p for p, c, _ in self.edges if c == vertex))

    def coefficient_matrix(self) -> np.ndarray:
        b = np.zeros((self.n, self.n))
        for parent, child, beta in self.edges:
            b[parent, child] = beta
        return b


def dag_to_gaussian(dag: GaussianDag) -> tuple[np.ndarray, np.ndarray]:
    """Joint (mean, covariance) of the DAG model; the covariance is exactly
    symmetric and positive definite."""
    eye = np.eye(dag.n)
    a = np.linalg.inv(eye - dag.coefficient_matrix())
    phi = np.asarray(dag.cond_vars, dtype=float)
    cov = a.T @ (phi[:, None] * a)
    cov = (cov + cov.T) / 2.0
    mean = a.T @ np.asarray(dag.intercepts, dtype=float)
    return mean, cov


def dag_ci_statements(dag: GaussianDag) -> tuple[CIStatement, ...]:
    """Per-vertex factorization statements, one per vertex whose predecessors
    are not all parents, in topological order."""
    parents: list[list[int]] = [[] for _ in range(dag.n)]
    for parent, child, _ in dag.edges:
        parents[child].append(parent)
    out = []
    for k, vertex in enumerate(dag.order):
        given = tuple(sorted(parents[vertex]))
        indep = set(dag.order[:k]).difference(given)
        if indep:
            out.append(CIStatement(left=(vertex,), right=tuple(sorted(indep)), given=given))
    return tuple(out)

