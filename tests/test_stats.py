import itertools
import math

import mpmath
import numpy as np
import pytest

from trajlm.stats import (
    betainc_reg,
    bh_fdr,
    fisher_z_compare,
    normal_sf,
    pearson_with_ci,
    student_t_p_value,
)

mpmath.mp.dps = 40


def oracle_t_p(t, df):
    """Two-sided t-test p-value via mpmath's incomplete beta."""
    x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
    return float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))


def beta_grid(a, b):
    """x from 1e-12 to 1 - 1e-12, log-spaced toward both ends, then near the
    continued fraction's switch point (a + 1) / (a + b + 2) on both sides and
    across the distribution's bulk in steps of its standard deviation."""
    switch = (a + 1) / (a + b + 2)
    ends = np.logspace(-12, math.log10(0.5), 20)
    xs = [*ends, *(1 - ends)]
    xs += [switch * (1 - f) for f in (1e-1, 1e-2, 1e-4, 1e-8)] + [switch + (1 - switch) * f for f in (1e-1, 1e-2, 1e-4, 1e-8)]
    mean, sd = a / (a + b), math.sqrt(a * b / (a + b + 1)) / (a + b)
    xs += [mean + k * sd for k in (-30, -10, -5, -2, -1, 0, 1, 2, 5, 10, 30)]
    return sorted({float(x) for x in xs if 0 < x < 1})


def mp_betainc_above_1e300(a, b, x):
    """I_x(a, b) at 40 digits, or None where it is below 1e-300.  Below the
    switch point I_x = x^a (1-x)^b / (a B(a, b)) * 2F1(a+b, 1; a+1; x), whose
    terms shrink by at least rho = max((a+b) x / (a+1), x) < 1 each, so
    the prefactor over a (1 - rho) bounds I_x from above; mpmath's own
    betainc fails to converge on some points far below 1e-300."""
    a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
    if x < (a + 1) / (a + b + 2):
        log_pre = a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(a * mpmath.beta(a, b))
        rho = max((a + b) * x / (a + 1), x)
        if mpmath.exp(log_pre) / (1 - rho) < mpmath.mpf("1e-300"):
            return None
    return mpmath.betainc(a, b, 0, x, regularized=True)


def oracle_fisher_ci(r, n, z=1.96):
    zr = mpmath.atanh(mpmath.mpf(r))
    se = 1 / mpmath.sqrt(mpmath.mpf(n) - 3)
    return float(mpmath.tanh(zr - z * se)), float(mpmath.tanh(zr + z * se))


class TestIncompleteBeta:
    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (2.0, 3.0), (10.0, 0.5), (50.5, 0.5), (1.0, 1.0)])
    def test_against_mpmath(self, a, b):
        for x in (0.001, 0.1, 0.35, 0.5, 0.73, 0.9, 0.999):
            want = float(mpmath.betainc(a, b, 0, x, regularized=True))
            assert abs(betainc_reg(a, b, x) - want) < 1e-12

    def test_endpoints(self):
        assert betainc_reg(2.0, 3.0, 0.0) == 0.0
        assert betainc_reg(2.0, 3.0, 1.0) == 1.0

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            betainc_reg(1.0, 1.0, 1.5)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)])
    def test_parameters_checked(self, a, b):
        with pytest.raises(ValueError, match="positive and finite"):
            betainc_reg(a, b, 0.5)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 5.0, 49.0, 499.0, 7500.0, 25000.0, 50000.0])
    def test_grid_against_mpmath(self, a):
        """Relative error at most 1e-12 wherever I_x >= 1e-300, x from 1e-12
        to 1 - 1e-12 and close to the switch point on both sides, the oracle
        evaluated at the same double inputs.  A t-test's df is 2a, so the
        grid reaches df = 100,000, past the paper's cohort of about 15,000."""
        checked = 0
        for b in (0.5, 1.0, 3.0, 40.0):
            for x in beta_grid(a, b):
                want = mp_betainc_above_1e300(a, b, x)
                if want is None:
                    continue
                checked += 1
                got = betainc_reg(a, b, x)
                assert abs((got - want) / want) <= 1e-12, (a, b, x, got)
        assert checked >= 100

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.5, 40.0), (49.0, 3.0), (50000.0, 0.5), (7500.0, 40.0)])
    def test_reflection(self, a, b):
        """I_x(a, b) = 1 - I_{1-x}(b, a) within 1e-12 relative, or one ulp
        of 1 where 1 - I cannot resolve I, at x where 1 - x is exact; at the
        switch point both sides take the same branch."""
        for x in (0.5, *(1 - np.logspace(-12, -0.31, 40)), (a + 1) / (a + b + 2), a / (a + b)):
            if x >= 0.5:
                assert betainc_reg(a, b, x) == pytest.approx(1.0 - betainc_reg(b, a, 1.0 - x), rel=1e-12, abs=2.3e-16), x


class TestStudentT:
    def test_twenty_fixtures_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = float(rng.uniform(-6, 6))
            df = int(rng.integers(2, 400))
            assert abs(student_t_p_value(t, df) - oracle_t_p(t, df)) < 1e-9

    def test_symmetry(self):
        assert student_t_p_value(2.5, 30) == student_t_p_value(-2.5, 30)

    def test_zero_stat(self):
        assert student_t_p_value(0.0, 10) == pytest.approx(1.0)


class TestNormal:
    def test_against_oracle(self):
        for z in (-3.0, -1.0, 0.0, 0.5, 1.96, 4.2):
            want = float(mpmath.ncdf(-mpmath.mpf(z)))
            assert abs(normal_sf(z) - want) < 1e-14


class TestPearson:
    def test_fixture_r05_n103(self):
        # high-precision oracle values for the r=0.5, n=103 interval
        lo, hi = oracle_fisher_ci(0.5, 103)
        z = math.atanh(0.5)
        se = 1 / math.sqrt(100)
        assert abs(math.tanh(z - 1.96 * se) - lo) < 1e-15
        assert abs(lo - 0.3393043355778955) < 1e-9
        assert abs(hi - 0.6323403119449977) < 1e-9

    def test_perfect_correlation(self):
        x = np.arange(10.0)
        r, p, ci = pearson_with_ci(x, x)
        assert r == 1.0
        assert p == 0.0

    def test_perfect_anticorrelation(self):
        x = np.arange(10.0)
        r, _, _ = pearson_with_ci(x, -x)
        assert r == -1.0

    def test_ci_matches_oracle_on_random_fixtures(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(5, 300))
            x = rng.normal(size=n)
            y = 0.6 * x + rng.normal(size=n)
            r, p, (lo, hi) = pearson_with_ci(x, y)
            olo, ohi = oracle_fisher_ci(r, n)
            assert abs(lo - olo) < 1e-9
            assert abs(hi - ohi) < 1e-9
            t = r * math.sqrt((n - 2) / (1 - r * r))
            assert abs(p - oracle_t_p(t, n - 2)) < 1e-9

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(2)
        x = rng.normal(size=50)
        y = rng.normal(size=50) + 0.3 * x
        r, p, _ = pearson_with_ci(x, y)
        ref = scipy_stats.pearsonr(x, y)
        assert abs(r - ref.statistic) < 1e-12
        assert abs(p - ref.pvalue) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            pearson_with_ci([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_short_input_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            pearson_with_ci([1.0], [2.0])


class TestFisherZ:
    def test_equal_correlations(self):
        z, p = fisher_z_compare(0.4, 0.4, 50)
        assert z == 0.0
        assert p == 1.0

    def test_hand_computed_fixture(self):
        z, _ = fisher_z_compare(0.6, 0.4, 103)
        want = (math.atanh(0.6) - math.atanh(0.4)) / math.sqrt(2 / 100)
        assert abs(z - want) < 1e-15
        assert abs(z - (0.6931471805599453 - 0.42364893019360184) / math.sqrt(0.02)) < 1e-12

    def test_antisymmetry(self):
        z1, p1 = fisher_z_compare(0.7, 0.2, 40)
        z2, p2 = fisher_z_compare(0.2, 0.7, 40)
        assert z1 == -z2
        assert p1 == p2

    def test_unit_correlation_rejected(self):
        with pytest.raises(ValueError):
            fisher_z_compare(1.0, 0.5, 30)


def brute_force_bh(pvalues, q):
    """Quadratic restatement of the step-up definition."""
    p = list(pvalues)
    m = len(p)
    ranked = sorted(p)
    k_star = 0
    for k in range(1, m + 1):
        if ranked[k - 1] <= k * q / m:
            k_star = k
    if k_star == 0:
        return [False] * m
    return [x <= ranked[k_star - 1] for x in p]


class TestBhFdr:
    def test_all_rejected(self):
        assert bh_fdr([0.01, 0.02, 0.04], 0.05).tolist() == [True, True, True]

    def test_none_rejected(self):
        assert bh_fdr([1.0, 1.0, 1.0], 0.05).tolist() == [False, False, False]

    def test_single_test(self):
        assert bh_fdr([0.04], 0.05).tolist() == [True]

    def test_matches_brute_force_exhaustively(self):
        grid = [0.0, 0.004, 0.01, 0.02, 0.04, 0.3, 0.9, 1.0]
        for m in range(1, 4):
            for combo in itertools.product(grid, repeat=m):
                assert bh_fdr(list(combo), 0.05).tolist() == brute_force_bh(combo, 0.05), combo

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(3)
        for m in range(1, 9):
            for _ in range(200):
                p = rng.random(m) ** 2
                assert bh_fdr(p, 0.05).tolist() == brute_force_bh(p, 0.05)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bh_fdr([0.5, 1.2])

