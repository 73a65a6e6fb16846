"""Reduction engine: homogeneity gate, covariance quotient, PSD certificate,
and the direct quadrature evaluation of the reduced problem."""

import math

import numpy as np
import pytest

from numerkit.analytic import bs_call, norm_cdf
from numerkit.errors import (
    DegenerateCovarianceError,
    DimensionError,
    PayoffEvaluationError,
    PricingError,
    ReductionError,
)
from numerkit.model import covariance, covariance_from_loadings
from numerkit.numeraire import (
    certify_psd,
    check_homogeneity,
    quadrature_price,
    reduce,
)


class TestCheckHomogeneity:
    def test_exchange_payoff(self):
        assert check_homogeneity(lambda s: max(s[1] - s[0], 0.0), 2)

    def test_fixed_strike_fails(self):
        assert not check_homogeneity(lambda s: max(s[1] - 1.0, 0.0), 2)

    def test_plan_payoff(self):
        beta = 0.85
        payoff = lambda s: s[1] - beta * min(s[1], s[0])
        assert check_homogeneity(payoff, 2)

    def test_non_finite_payoff_names_sample(self):
        with pytest.raises(PayoffEvaluationError) as err:
            check_homogeneity(lambda s: float("inf"), 2)
        assert "sample" in str(err.value)
        assert "S=" in str(err.value)

    def test_degree_two_fails(self):
        assert not check_homogeneity(lambda s: float(s[0] * s[1]), 2)


class TestReduce:
    def test_two_asset_arithmetic(self):
        cov = covariance([[0.04, 0.03], [0.03, 0.09]])
        b = reduce(cov, lambda s: max(s[1] - s[0], 0.0))
        assert b.shape == (1, 1)
        assert b[0, 0] == pytest.approx(0.07, abs=1e-16)

    def test_three_asset_diagonal(self):
        s0, s1, s2 = 0.2, 0.3, 0.15
        cov = covariance(np.diag([s0 ** 2, s1 ** 2, s2 ** 2]))
        b = reduce(cov, lambda s: max(s[1] - s[2], 0.0))
        expect = [[s0 ** 2 + s1 ** 2, s0 ** 2],
                  [s0 ** 2, s0 ** 2 + s2 ** 2]]
        assert np.allclose(b, expect, atol=1e-16)

    def test_random_loadings_entrywise(self):
        # brute-force eta-vector expansion: b_ij = (e_i - e_0)' A (e_j - e_0)
        rng = np.random.default_rng(23)
        for _ in range(20):
            L = rng.normal(size=(3, 2)) * 0.3
            cov = covariance_from_loadings(L)
            a = cov
            b = reduce(a, lambda s: max(s[1] - s[2], 0.0))
            for i in range(1, 3):
                for j in range(1, 3):
                    eta_i = np.zeros(3)
                    eta_i[[0, i]] = (-1.0, 1.0)
                    eta_j = np.zeros(3)
                    eta_j[[0, j]] = (-1.0, 1.0)
                    assert b[i - 1, j - 1] == pytest.approx(
                        eta_i @ a @ eta_j, abs=1e-15)

    def test_non_homogeneous_rejected(self):
        cov = covariance([[0.04, 0.03], [0.03, 0.09]])
        with pytest.raises(ReductionError):
            reduce(cov, lambda s: max(s[1] - 1.0, 0.0))

    def test_single_asset_rejected(self):
        with pytest.raises(DimensionError):
            reduce(covariance([[0.04]]),
                   lambda s: float(s[0]))


class TestCertifyPsd:
    def test_positive_scalar(self):
        assert certify_psd(np.array([[0.07]]))

    def test_zero_matrix(self):
        assert certify_psd(np.zeros((2, 2)))

    def test_indefinite(self):
        assert not certify_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_raises(self):
        with pytest.raises(DimensionError):
            certify_psd(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            certify_psd(np.zeros((2, 3)))

    def test_nan_entry_raises(self):
        with pytest.raises(DimensionError, match="finite"):
            certify_psd(np.array([[0.07, math.nan], [math.nan, 0.02]]))

    def test_random_reductions_all_certify(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n + 1))
            L = rng.normal(size=(n, k)) * rng.uniform(0.05, 0.6)
            cov = covariance_from_loadings(L)
            b = reduce(cov, lambda s: float(np.max(s)))
            assert certify_psd(b)


class TestQuadraturePrice:
    def test_call_reference(self):
        # variance 0.04, z = 1: 2 N(0.1) - 1 in 40-digit arithmetic
        call = lambda z: np.maximum(z - 1.0, 0.0)
        assert quadrature_price(0.04, 1.0, call, kinks=(1.0,)) == pytest.approx(
            0.079655674554057962931, rel=1e-10)

    def test_call_matches_bs_over_grid(self):
        call = lambda z: np.maximum(z - 1.0, 0.0)
        for b11 in (0.01, 0.04, 0.16):
            for z in (0.5, 0.8, 1.0, 1.25, 2.0):
                for t in (0.0, 1.0, 1.9):
                    got = quadrature_price(b11 * (2.0 - t), z, call,
                                           kinks=(1.0,))
                    ref = bs_call(z, 1.0, 0.0, 0.0, math.sqrt(b11), 2.0 - t)
                    assert got == pytest.approx(ref, rel=1e-8, abs=1e-12)

    # undiscounted calls and puts struck at 1, out of the money from about
    # 1e-5 down to 1e-200: z N(d1) - N(d2) and N(-d2) - z N(-d1) in 80-digit
    # arithmetic, rounded to 40
    @pytest.mark.parametrize("variance,ratio,put,reference", [
        (0.04, 0.5, False, "9.431090880750187926526352278208657287341e-6"),
        (0.04, 3.0, True, "1.168582763137138078898315952255588634296e-9"),
        (0.01, 0.4, False, "1.702113483832015175429709423921763860682e-22"),
        (0.0025, 0.5, False, "1.340421039964283227042124687722630023426e-46"),
        (0.01, 8.0, True, "3.28768670135705227089055233924817345906e-98"),
        (1.0, 1e-12, False, "7.518736612566289037911118067790091034001e-176"),
        (0.01, 20.0, True, "2.627567618297691518531303246810056552158e-199"),
        (0.01, 0.05, False, "1.313783809148867692029273026522072497861e-200"),
    ])
    def test_far_tail_relative_accuracy(self, variance, ratio, put, reference):
        payoff = ((lambda z: np.maximum(1.0 - z, 0.0)) if put
                  else (lambda z: np.maximum(z - 1.0, 0.0)))
        got = quadrature_price(variance, ratio, payoff, kinks=(1.0,))
        assert got == pytest.approx(float(reference), rel=1e-10, abs=0.0)

    def test_payoff_called_once_on_an_array(self):
        calls = []

        def payoff(z):
            calls.append(z.shape)
            return np.maximum(z - 1.0, 0.0)
        quadrature_price(0.04, 1.0, payoff, kinks=(1.0,))
        assert len(calls) == 1 and len(calls[0]) == 1

    def test_forward_is_martingale(self):
        for z in (0.25, 1.0, 3.7):
            assert quadrature_price(0.09, z, lambda z: z) == pytest.approx(
                z, rel=1e-10)

    def test_normalization_1d(self):
        assert quadrature_price(0.04, 1.0, lambda z: 1.0) == pytest.approx(
            1.0, abs=1e-8)

    def test_zero_variance_is_payoff_at_state(self):
        got = quadrature_price(0.0, 1.25, lambda z: max(z - 0.9, 0.0),
                               kinks=(0.9,))
        assert got == pytest.approx(0.35, rel=1e-15)

    @pytest.mark.parametrize("b11", [-1e-6, math.inf, math.nan])
    def test_invalid_variance(self, b11):
        with pytest.raises(DegenerateCovarianceError):
            quadrature_price(b11, 1.0, lambda z: 1.0)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, -math.inf])
    def test_non_positive_ratio(self, ratio):
        with pytest.raises(ValueError):
            quadrature_price(0.04, ratio, lambda z: 1.0)

    @pytest.mark.parametrize("ratio", [math.inf, math.nan])
    def test_non_finite_ratio_refused_before_integrating(self, ratio):
        def payoff(z):
            raise AssertionError("payoff evaluated")
        with pytest.raises(PricingError, match="not finite"):
            quadrature_price(0.04, ratio, payoff)
