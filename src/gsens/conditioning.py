"""Conditional Gaussian moments.

Conditioning on observed values y_E leaves the remaining variables Gaussian
with mean mu_O + S_OE S_EE^-1 (y_E - mu_E) and covariance
S_OO - S_OE S_EE^-1 S_EO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GsensError
from .matcore import as_matrix, check_symmetric, inverse


@dataclass(frozen=True, eq=False)
class Evidence:
    """Observed finite values for a non-empty subset of variables (0-based
    indices).

    Pairs are sorted by index at construction.
    """

    indices: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if len(idx) == 0:
            raise ValueError("evidence must cover at least one variable")
        if len(set(idx)) != len(idx):
            raise ValueError("evidence indices contain duplicates")
        if vals.shape[0] != len(idx):
            raise ValueError(f"{len(idx)} evidence indices but {vals.shape[0]} values")
        for i, v in zip(idx, vals):
            if not np.isfinite(v):
                raise GsensError(f"evidence value for variable {i + 1} is {v}, not finite")
        order = np.argsort(idx)
        object.__setattr__(self, "indices", tuple(idx[k] for k in order))
        object.__setattr__(self, "values", vals[order])

    @classmethod
    def from_pairs(cls, pairs) -> "Evidence":
        items = list(pairs.items()) if isinstance(pairs, dict) else list(pairs)
        return cls(tuple(i for i, _ in items), np.array([v for _, v in items], dtype=float))


def condition(mean, cov, evidence: Evidence) -> tuple[np.ndarray, np.ndarray]:
    """Conditional (mean, covariance) of the unobserved variables given the
    evidence, unobserved variables in ascending index order."""
    cov = check_symmetric(as_matrix(cov, "cov"), "cov")
    n = cov.shape[0]
    if mean is None:
        mean = np.zeros(n)
    mean = np.asarray(mean, dtype=float).reshape(-1)
    if mean.shape[0] != n:
        raise ValueError(f"mean has length {mean.shape[0]}, expected {n}")
    obs = list(evidence.indices)
    if max(obs) >= n:
        raise IndexError(f"evidence index {max(obs) + 1} out of range for dimension {n}")
    out = [k for k in range(n) if k not in set(obs)]
    if not out:
        raise ValueError("evidence covers every variable; nothing left to condition")
    prec_e = inverse(cov[np.ix_(obs, obs)])
    gain = cov[np.ix_(out, obs)] @ prec_e
    mean_cond = mean[out] + gain @ (evidence.values - mean[obs])
    cov_cond = cov[np.ix_(out, out)] - gain @ cov[np.ix_(obs, out)]
    return mean_cond, (cov_cond + cov_cond.T) / 2.0
