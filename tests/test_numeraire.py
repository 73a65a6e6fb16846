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
    ReductionError,
    TimeDomainError,
    UnsupportedDimensionError,
)
from numerkit.model import (
    AssetDynamics,
    CovarianceMatrix,
    HomogeneousPayoff,
    MultiAssetProblem,
    covariance_from_loadings,
)
from numerkit.numeraire import (
    ReducedProblem,
    certify_psd,
    check_homogeneity,
    quadrature_price,
    reduce,
)


def _problem(cov, payoff, spots=None, maturity=1.0):
    dim = cov.dim
    spots = spots or [1.0] * dim
    assets = tuple(AssetDynamics(spot=s, loadings=(0.0,)) for s in spots)
    return MultiAssetProblem(assets=assets, covariance=cov,
                             payoff=HomogeneousPayoff(payoff),
                             maturity=maturity)


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
        cov = CovarianceMatrix([[0.04, 0.03], [0.03, 0.09]])
        red = reduce(_problem(cov, lambda s: max(s[1] - s[0], 0.0)))
        assert red.b_matrix.shape == (1, 1)
        assert red.b_matrix[0, 0] == pytest.approx(0.07, abs=1e-16)

    def test_three_asset_diagonal(self):
        s0, s1, s2 = 0.2, 0.3, 0.15
        cov = CovarianceMatrix(np.diag([s0 ** 2, s1 ** 2, s2 ** 2]))
        red = reduce(_problem(cov, lambda s: max(s[1] - s[2], 0.0)))
        expect = [[s0 ** 2 + s1 ** 2, s0 ** 2],
                  [s0 ** 2, s0 ** 2 + s2 ** 2]]
        assert np.allclose(red.b_matrix, expect, atol=1e-16)

    def test_random_loadings_entrywise(self):
        # brute-force eta-vector expansion: b_ij = (e_i - e_0)' A (e_j - e_0)
        rng = np.random.default_rng(23)
        for _ in range(20):
            L = rng.normal(size=(3, 2)) * 0.3
            assets = [AssetDynamics(1.0, tuple(row)) for row in L]
            cov = covariance_from_loadings(assets)
            red = reduce(_problem(cov, lambda s: max(s[1] - s[2], 0.0)))
            a = cov.as_array()
            for i in range(1, 3):
                for j in range(1, 3):
                    eta_i = np.zeros(3)
                    eta_i[[0, i]] = (-1.0, 1.0)
                    eta_j = np.zeros(3)
                    eta_j[[0, j]] = (-1.0, 1.0)
                    assert red.b_matrix[i - 1, j - 1] == pytest.approx(
                        eta_i @ a @ eta_j, abs=1e-15)

    def test_payoff_fixes_numeraire_at_one(self):
        cov = CovarianceMatrix([[0.04, 0.03], [0.03, 0.09]])
        red = reduce(_problem(cov, lambda s: 2.0 * s[0] + 3.0 * s[1]))
        assert red.payoff_f(np.array([1.5])) == pytest.approx(2.0 + 4.5)
        assert red.maturity == 1.0

    def test_scale_invariance(self):
        cov = CovarianceMatrix([[0.04, 0.03], [0.03, 0.09]])
        payoff = lambda s: max(s[1] - s[0], 0.0)
        red_a = reduce(_problem(cov, payoff, spots=[1.0, 2.0]))
        red_b = reduce(_problem(cov, payoff, spots=[5.0, 10.0]))
        assert np.array_equal(red_a.b_matrix, red_b.b_matrix)
        for z in (0.5, 1.0, 2.0):
            assert red_a.payoff_f(np.array([z])) == red_b.payoff_f(np.array([z]))

    def test_non_homogeneous_rejected(self):
        cov = CovarianceMatrix([[0.04, 0.03], [0.03, 0.09]])
        with pytest.raises(ReductionError):
            reduce(_problem(cov, lambda s: max(s[1] - 1.0, 0.0)))


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

    def test_random_reductions_all_certify(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n + 1))
            L = rng.normal(size=(n, k)) * rng.uniform(0.05, 0.6)
            assets = [AssetDynamics(1.0, tuple(row)) for row in L]
            cov = covariance_from_loadings(assets)
            red = reduce(_problem(cov, lambda s: float(np.max(s))))
            assert certify_psd(red.b_matrix)


class TestQuadraturePrice:
    def test_call_reference(self):
        # B = [0.04], tau = 1, z = 1: 2 N(0.1) - 1 in 40-digit arithmetic
        red = ReducedProblem(b_matrix=np.array([[0.04]]),
                             payoff_f=lambda z: max(z[0] - 1.0, 0.0),
                             maturity=1.0, kinks=(1.0,))
        assert quadrature_price(red, [1.0], 0.0) == pytest.approx(
            0.079655674554057962931, rel=1e-10)

    def test_call_matches_bs_over_grid(self):
        for b11 in (0.01, 0.04, 0.16):
            red = ReducedProblem(b_matrix=np.array([[b11]]),
                                 payoff_f=lambda z: max(z[0] - 1.0, 0.0),
                                 maturity=2.0, kinks=(1.0,))
            for z in (0.5, 0.8, 1.0, 1.25, 2.0):
                for t in (0.0, 1.0, 1.9):
                    got = quadrature_price(red, [z], t)
                    ref = bs_call(z, 1.0, 0.0, 0.0, math.sqrt(b11), 2.0 - t)
                    assert got == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_forward_is_martingale(self):
        red = ReducedProblem(b_matrix=np.array([[0.09]]),
                             payoff_f=lambda z: float(z[0]), maturity=1.0)
        for z in (0.25, 1.0, 3.7):
            assert quadrature_price(red, [z], 0.0) == pytest.approx(
                z, rel=1e-10)

    def test_normalization_1d(self):
        red = ReducedProblem(b_matrix=np.array([[0.04]]),
                             payoff_f=lambda z: 1.0, maturity=1.0)
        assert quadrature_price(red, [1.0], 0.0) == pytest.approx(
            1.0, abs=1e-8)

    def test_unsupported_dimension(self):
        # one ratio only; reduce() still quotients any dimension
        for n in (2, 3):
            red = ReducedProblem(b_matrix=np.eye(n) * 0.04,
                                 payoff_f=lambda z: 1.0, maturity=1.0)
            with pytest.raises(UnsupportedDimensionError):
                quadrature_price(red, [1.0] * n, 0.0)

    def test_zero_variance_is_payoff_at_state(self):
        red = ReducedProblem(b_matrix=np.array([[0.0]]),
                             payoff_f=lambda z: max(float(z[0]) - 0.9, 0.0),
                             maturity=1.0, kinks=(0.9,))
        assert quadrature_price(red, [1.25], 0.0) == pytest.approx(0.35,
                                                                   rel=1e-15)

    @pytest.mark.parametrize("b11", [-1e-6, math.inf, math.nan])
    def test_invalid_variance(self, b11):
        red = ReducedProblem(b_matrix=np.array([[b11]]),
                             payoff_f=lambda z: 1.0, maturity=1.0)
        with pytest.raises(DegenerateCovarianceError):
            quadrature_price(red, [1.0], 0.0)

    def test_time_domain(self):
        red = ReducedProblem(b_matrix=np.array([[0.04]]),
                             payoff_f=lambda z: 1.0, maturity=1.0)
        with pytest.raises(TimeDomainError):
            quadrature_price(red, [1.0], 1.0)

    def test_state_dimension_mismatch(self):
        red = ReducedProblem(b_matrix=np.array([[0.04]]),
                             payoff_f=lambda z: 1.0, maturity=1.0)
        with pytest.raises(DimensionError):
            quadrature_price(red, [1.0, 2.0], 0.0)
