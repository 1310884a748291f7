"""Correlation inference, multiple-testing control, and the special
functions they need: the regularized incomplete beta behind the t-test's
p-value, and the normal tail.

`betainc_reg` is computed here, with the standard library and no scipy:
the continued fraction for I_x(a, b) (Press et al., *Numerical Recipes*
§6.4), taken on whichever side of x = (a + 1) / (a + b + 2) it converges
fast, evaluated by modified Lentz over its odd part, times the prefactor
x^a (1 - x)^b / (a B(a, b)) formed in log space.  Two steps keep large
a + b accurate:

- each odd term's 1 - c·x, which nears 0 close to the switch point once
  a + b is large, is formed with an exact product of c and x (exact
  throughout where a and b are multiples of 1/2, as a t-test's are), so
  the cancellation costs no accuracy;
- log B(a, b) takes the ratio Γ(a + b) / Γ(a) of the larger argument a
  from the Stirling series' remainders (DiDonato & Morris 1992, ACM TOMS
  708), not as the difference of two log-gammas near 10^5.

Against mpmath at 40 digits, on a from 0.5 to 50,000, b in {0.5, 1, 3, 40}
and x from 1e-12 to 1 - 1e-12 on both sides of the switch, the relative
error is at most 2.6e-13 over the 1,519 points where I_x >= 1e-300
(tests/test_stats.py).  With a and b both in the thousands it grows to
about 4e-12.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "betainc_reg",
    "student_t_p_value",
    "normal_sf",
    "pearson_with_ci",
    "fisher_z_compare",
    "bh_fdr",
]

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling series of log Γ(z): its k-th coefficient B_2k / (2k (2k - 1)).
# From z = 10 the eight terms leave a remainder below 1e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_STIRLING_FROM = 10.0
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_TINY = 1e-300  # Lentz's stand-in for a zero denominator
_EPS = sys.float_info.epsilon
_CF_MAX_TERMS = 100_000  # near the switch the fraction needs up to about sqrt(max(a, b)) terms


def _stirling_remainder(z: float) -> float:
    """log Γ(z) - [(z - 1/2) log z - z + log √(2π)]; about 1 / (12 z)."""
    if z < _STIRLING_FROM:  # the terms are of moderate size here, so their difference keeps its digits
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _LN_SQRT_2PI
    w = 1.0 / (z * z)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * w + c
    return s / z


def _log_prefactor(a: float, b: float, x: float, y: float) -> float:
    """log[x^a y^b / B(a, b)] for a >= b and y = 1 - x.

    log Γ(a + b) - log Γ(a) = (a - 1/2) log1p(b/a) + b log(a + b) - b plus
    the difference of the two Stirling remainders, so a large a enters
    only through a log x + a log1p(b/a), which cancel to O(b) near the
    bulk of the distribution."""
    s = a + b
    r = math.log1p(b / a)
    return (
        a * (math.log(x) + r) - 0.5 * r + b * math.log(s * y) - b
        - math.lgamma(b) + _stirling_remainder(s) - _stirling_remainder(a)
    )


def _two_product(u: float, v: float) -> tuple[float, float]:
    """(p, e) with p = fl(u·v) and p + e = u·v exactly (Dekker 1971)."""
    p = u * v
    c = _SPLIT * u
    uh = c - (c - u)
    ul = u - uh
    c = _SPLIT * v
    vh = c - (c - v)
    vl = v - vh
    return p, ((uh * vh - p) + uh * vl + ul * vh) + ul * vl


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction 1 / (1 + d1 / (1 + d2 / (1 + ...))) with
    I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) times it, for x below
    (a + 1) / (a + b + 2), where d_{2m+1} = -(a+m)(a+b+m) x / ((a+2m)(a+2m+1))
    and d_{2m} = m(b-m) x / ((a+2m-1)(a+2m)).

    Lentz runs over the fraction's odd part, (1 + d1) - d1 d2 / ((1 + d2 + d3)
    - d3 d4 / ((1 + d4 + d5) - ...)), so every 1 + d_{2m+1} is one term, and
    that term is formed with an exact product: for large a with x near 1 it
    is O(1/a), and 1 + d computed in floating point would carry a relative
    error of about a·ε into every step."""
    s = a + b

    def one_plus_odd(m: int) -> float:
        top = (a + 2 * m) * (a + 2 * m + 1)
        hi, lo = _two_product((a + m) * (s + m), x)
        return ((top - hi) - lo) / top

    f = c = one_plus_odd(0)  # positive below the switch point
    d = 0.0
    odd = f - 1.0
    for m in range(1, _CF_MAX_TERMS):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        next_odd = one_plus_odd(m)
        num, den = -odd * even, next_odd + even
        d = den + num * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = den + num / c
        if abs(c) < _TINY:
            c = _TINY
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= _EPS:
            return 1.0 / f
        odd = next_odd - 1.0
    raise ArithmeticError(f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), for a, b > 0 and x in [0, 1]."""
    if not (math.isfinite(a) and a > 0.0 and math.isfinite(b) and b > 0.0):
        raise ValueError(f"a and b must be positive and finite, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return float(x)
    y = 1.0 - x
    prefactor = math.exp(_log_prefactor(a, b, x, y) if a >= b else _log_prefactor(b, a, y, x))
    if x < (a + 1.0) / (a + b + 2.0):
        return prefactor / a * _beta_fraction(a, b, x)
    return 1.0 - prefactor / b * _beta_fraction(b, a, y)


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

