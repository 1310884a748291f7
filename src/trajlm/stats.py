"""Correlation inference, multiple-testing control, and supporting special
functions (regularized incomplete beta, normal tails).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "betainc_reg",
    "student_t_p_value",
    "normal_sf",
    "pearson_with_ci",
    "fisher_z_compare",
    "bh_fdr",
]


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    from scipy.special import betainc  # here: importing scipy.special costs about 0.2 s

    return float(betainc(a, b, x))


def student_t_p_value(t: float, df: float) -> float:
    """Two-sided p-value of a t statistic with df degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return 0.0
    return betainc_reg(df / 2.0, 0.5, df / (df + t * t))


def normal_sf(z: float) -> float:
    """Upper-tail probability of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def pearson_with_ci(x, y):
    """Pearson r with its t-test p-value and Fisher-Z 95% confidence interval.

    Returns (r, p, (ci_low, ci_high)).  The CI needs n >= 4; below that the
    bounds are NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n != y.size:
        raise ValueError(f"length mismatch: {n} vs {y.size}")
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in correlation input")
    xc = x - x.mean()
    yc = y - y.mean()
    ssx = float(xc @ xc)
    ssy = float(yc @ yc)
    if ssx == 0.0 or ssy == 0.0:
        raise ValueError("correlation undefined for zero-variance input")
    r = float(xc @ yc) / math.sqrt(ssx * ssy)
    r = max(-1.0, min(1.0, r))

    if n > 2 and abs(r) < 1.0:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = student_t_p_value(t, n - 2)
    else:
        p = 0.0 if abs(r) == 1.0 else math.nan

    if n > 3:
        if abs(r) < 1.0:
            z = math.atanh(r)
            se = 1.0 / math.sqrt(n - 3)
            ci = (math.tanh(z - 1.96 * se), math.tanh(z + 1.96 * se))
        else:
            ci = (r, r)
    else:
        ci = (math.nan, math.nan)
    return r, p, ci


def fisher_z_compare(r1: float, r2: float, n: int):
    """Z test for the difference of two correlations measured on n subjects."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if abs(r1) >= 1.0 or abs(r2) >= 1.0:
        raise ValueError("correlations must be strictly inside (-1, 1)")
    z = (math.atanh(r1) - math.atanh(r2)) / math.sqrt(2.0 / (n - 3))
    p = 2.0 * normal_sf(abs(z))
    return z, min(p, 1.0)


def bh_fdr(pvalues, q: float = 0.05) -> np.ndarray:
    """Benjamini-Hochberg step-up: reject all p <= p_(k*), k* the largest k
    with p_(k) <= k*q/m."""
    p = np.asarray(pvalues, dtype=np.float64)
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    below = np.flatnonzero(ranked <= (np.arange(1, m + 1) * q / m))
    if below.size == 0:
        return np.zeros(m, dtype=bool)
    cutoff = ranked[below[-1]]
    return p <= cutoff

