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

