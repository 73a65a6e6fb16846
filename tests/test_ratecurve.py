"""Vasicek curve machinery against independent oracles.

The affine A-factor is certified by the PDE residual rather than trusted,
and the closed-form variance integral is checked against adaptive quadrature.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from numerkit.errors import TimeDomainError
from numerkit.ratecurve import (
    _SERIES_BELOW,
    VasicekModel,
    a_factor,
    affine_integrals,
    b_factor,
    bond_price,
    integrated_variance,
    risk_neutral_level,
    short_rate_from_bond,
    sigma_p,
)

MODEL = VasicekModel(theta=0.5, mu_r=0.05, sigma_r=0.01, lam=0.0, r0=0.03)


def _pde_residual(model, r, t, maturity, h=1e-4):
    """Central-difference residual of the bond equation at (r, t).

    p_t + 0.5 sigma_r^2 p_rr + [theta (mu_r - r) - lam sigma_r] p_r - r p.
    """
    p = lambda rr, tt: bond_price(model, rr, tt, maturity)
    p_t = (p(r, t + h) - p(r, t - h)) / (2.0 * h)
    p_r = (p(r + h, t) - p(r - h, t)) / (2.0 * h)
    p_rr = (p(r + h, t) - 2.0 * p(r, t) + p(r - h, t)) / (h * h)
    drift = model.theta * (model.mu_r - r) - model.lam * model.sigma_r
    return p_t + 0.5 * model.sigma_r ** 2 * p_rr + drift * p_r - r * p(r, t)


class TestBFactor:
    def test_zero_gap(self):
        assert b_factor(MODEL, 1.0, 1.0) == 0.0

    def test_small_theta_limit(self):
        model = VasicekModel(theta=1e-9, mu_r=0.05, sigma_r=0.01)
        assert b_factor(model, 0.0, 2.0) == pytest.approx(2.0, rel=1e-8)

    def test_reference_value(self):
        # (1 - e^{-1}) / 0.5 in 40-digit arithmetic
        assert b_factor(MODEL, 0.0, 2.0) == pytest.approx(
            1.2642411176571153568, rel=1e-15)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            b_factor(MODEL, 2.0, 1.0)


class TestAffineIntegrals:
    """int B and int B^2 over [0, tau] against adaptive quadrature of B(s) =
    -expm1(-theta s) / theta and its square, theta log-uniform on [1e-12,
    50] and tau on [0.01, 10], so that theta tau falls on both sides of
    _SERIES_BELOW; the closed forms just above it cancel, hence the looser
    bounds there."""

    @staticmethod
    def _draws(below):
        rng = np.random.default_rng(19)
        thetas = np.exp(rng.uniform(math.log(1e-12), math.log(50.0), 120))
        taus = rng.uniform(0.01, 10.0, 120)
        return [(float(th), float(tau)) for th, tau in zip(thetas, taus)
                if (th * tau < _SERIES_BELOW) == below]

    @pytest.mark.parametrize("below,tol_b,tol_b2", [
        (True, 1e-14, 1e-14), (False, 1e-11, 1e-7)], ids=["series", "closed"])
    def test_against_quadrature(self, below, tol_b, tol_b2):
        draws = self._draws(below)
        assert len(draws) >= 40
        for theta, tau in draws:
            t = 0.5 * tau
            b, int_b, int_b2 = affine_integrals(
                VasicekModel(theta=theta, mu_r=0.05, sigma_r=0.01), t, t + tau)
            span = (t + tau) - t
            curve = lambda s: -math.expm1(-theta * s) / theta
            ref_b, _ = quad(curve, 0.0, span, epsabs=0.0, epsrel=1.2e-14)
            ref_b2, _ = quad(lambda s: curve(s) ** 2, 0.0, span, epsabs=0.0,
                             epsrel=1.2e-14)
            assert b == b_factor(VasicekModel(theta, 0.05, 0.01), t, t + tau)
            assert int_b == pytest.approx(ref_b, rel=tol_b, abs=0.0)
            assert int_b2 == pytest.approx(ref_b2, rel=tol_b2, abs=0.0)

    @pytest.mark.parametrize("theta", [5e-324, 1e-320])
    def test_subnormal_theta_gives_the_zero_theta_limits(self, theta):
        model = VasicekModel(theta=theta, mu_r=0.05, sigma_r=0.01)
        b, int_b, int_b2 = affine_integrals(model, 0.5, 2.5)
        assert b == 2.0
        assert int_b == pytest.approx(2.0 ** 2 / 2.0, rel=1e-15)
        assert int_b2 == pytest.approx(2.0 ** 3 / 3.0, rel=1e-15)

    def test_empty_interval(self):
        assert affine_integrals(MODEL, 1.5, 1.5) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda: bond_price(MODEL, 0.03, math.nan, 2.0),
    lambda: sigma_p(MODEL, math.nan, 2.0),
    lambda: short_rate_from_bond(MODEL, 0.9, math.nan, 2.0),
    lambda: integrated_variance(MODEL, 0.25, 0.2, math.nan, 1.0, 2.0),
], ids=["bond_price", "sigma_p", "short_rate_from_bond", "integrated_variance"])
def test_nan_time_refused(call):
    # b_factor's ordering check is false for NaN, and every function reaches it
    with pytest.raises(ValueError, match="must not precede"):
        call()


class TestAFactor:
    def test_terminal_is_one(self):
        assert a_factor(MODEL, 2.0, 2.0) == 1.0

    def test_deterministic_rates(self):
        model = VasicekModel(theta=0.5, mu_r=0.05, sigma_r=0.0)
        b = b_factor(model, 0.0, 2.0)
        assert a_factor(model, 0.0, 2.0) == pytest.approx(
            math.exp((b - 2.0) * 0.05), rel=1e-15)

    def test_pde_residual_random_probes(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            model = VasicekModel(
                theta=float(rng.uniform(0.1, 2.0)),
                mu_r=float(rng.uniform(0.0, 0.1)),
                sigma_r=float(rng.uniform(0.001, 0.05)),
                lam=float(rng.uniform(-0.5, 0.5)))
            r = float(rng.uniform(-0.02, 0.15))
            t = float(rng.uniform(0.1, 1.9))
            assert abs(_pde_residual(model, r, t, 2.0)) < 1e-6


class TestBondPrice:
    def test_terminal_is_one(self):
        assert bond_price(MODEL, 0.03, 2.0, 2.0) == 1.0

    def test_decreasing_in_rate_and_maturity(self):
        rates = np.linspace(0.0, 0.2, 9)
        prices = [bond_price(MODEL, r, 0.0, 2.0) for r in rates]
        assert all(a > b for a, b in zip(prices, prices[1:]))
        mats = np.linspace(0.5, 10.0, 9)
        prices = [bond_price(MODEL, 0.03, 0.0, m) for m in mats]
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_positive(self):
        assert bond_price(MODEL, 0.5, 0.0, 30.0) > 0.0


class TestInversion:
    def test_round_trip_random_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            model = VasicekModel(
                theta=float(rng.uniform(0.05, 2.0)),
                mu_r=float(rng.uniform(0.0, 0.1)),
                sigma_r=float(rng.uniform(0.0, 0.05)),
                lam=float(rng.uniform(-0.5, 0.5)))
            r = float(rng.uniform(-0.05, 0.2))
            t = float(rng.uniform(0.0, 4.9))
            maturity = t + float(rng.uniform(0.1, 10.0))
            p = bond_price(model, r, t, maturity)
            assert short_rate_from_bond(model, p, t, maturity) == pytest.approx(
                r, abs=1e-12)

    def test_rate_zero_at_a_factor(self):
        p = a_factor(MODEL, 0.0, 2.0)
        assert short_rate_from_bond(MODEL, p, 0.0, 2.0) == pytest.approx(
            0.0, abs=1e-14)

    def test_terminal_inversion_undefined(self):
        with pytest.raises(TimeDomainError):
            short_rate_from_bond(MODEL, 1.0, 2.0, 2.0)

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError):
            short_rate_from_bond(MODEL, 0.0, 0.0, 2.0)


class TestSigmaP:
    def test_terminal_zero(self):
        assert sigma_p(MODEL, 2.0, 2.0) == 0.0

    def test_zero_vol(self):
        model = VasicekModel(theta=0.5, mu_r=0.05, sigma_r=0.0)
        assert sigma_p(model, 0.0, 2.0) == 0.0

    def test_composition(self):
        assert sigma_p(MODEL, 0.0, 2.0) == pytest.approx(
            0.01 * b_factor(MODEL, 0.0, 2.0), rel=1e-15)


class TestRiskNeutralLevel:
    def test_zero_lambda(self):
        assert risk_neutral_level(MODEL) == MODEL.mu_r

    def test_shift(self):
        model = VasicekModel(theta=0.5, mu_r=0.05, sigma_r=0.01, lam=0.2)
        assert risk_neutral_level(model) == pytest.approx(
            0.05 - 0.2 * 0.01 / 0.5, rel=1e-15)


class TestIntegratedVariance:
    def test_zero_rate_vol(self):
        model = VasicekModel(theta=0.5, mu_r=0.05, sigma_r=0.0)
        assert integrated_variance(model, 0.25, 0.2, 0.0, 1.0, 2.0) == \
            pytest.approx(0.25 ** 2 * 1.0, rel=1e-15)

    def test_zero_window(self):
        assert integrated_variance(MODEL, 0.25, 0.2, 1.0, 1.0, 2.0) == 0.0

    def test_bond_only_term_vs_quadrature(self):
        val = integrated_variance(MODEL, 0.0, 0.0, 0.0, 1.0, 2.0)
        ref, _ = quad(lambda u: sigma_p(MODEL, u, 2.0) ** 2, 0.0, 1.0,
                      epsabs=1e-14, epsrel=1e-13)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_full_integrand_vs_quadrature_random(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            model = VasicekModel(
                theta=float(rng.uniform(0.05, 2.0)),
                mu_r=0.05,
                sigma_r=float(rng.uniform(0.001, 0.05)))
            sa = float(rng.uniform(0.05, 0.5))
            rho = float(rng.uniform(-0.95, 0.95))
            t = float(rng.uniform(0.0, 0.5))
            t0 = t + float(rng.uniform(0.1, 2.0))
            t1 = t0 + float(rng.uniform(0.0, 3.0))
            val = integrated_variance(model, sa, rho, t, t0, t1)

            def integrand(u):
                sp = sigma_p(model, u, t1)
                return sa * sa + 2.0 * rho * sa * sp + sp * sp

            ref, _ = quad(integrand, t, t0, epsabs=1e-14, epsrel=1e-13)
            assert val == pytest.approx(ref, rel=1e-10)

    def test_nondecreasing_in_exercise_date(self):
        vals = [integrated_variance(MODEL, 0.25, -0.9, 0.0, t0, 2.0)
                for t0 in np.linspace(0.0, 2.0, 21)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0

    def test_ordering_violations_rejected(self):
        with pytest.raises(ValueError):
            integrated_variance(MODEL, 0.2, 0.0, 1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            integrated_variance(MODEL, 0.2, 0.0, 0.0, 1.0, 0.5)


class TestSmallTheta:
    """theta -> 0 (sigma_r = 0.01, r = 0.05, tau = 2): the bond price tends
    to exp(-r tau + sigma_r^2 tau^3 / 6) and the rate variance to
    sigma_r^2 tau^3 / 3.  The references are those limits with their first
    and second order terms in theta, from B(s) = s - theta s^2 / 2 +
    theta^2 s^3 / 6 - ..., whose remainder is below 1e-14 relative here;
    the closed forms, which divide by theta^2, gave a negative variance at
    theta = 1e-9."""

    SIGMA_R, R, TAU = 0.01, 0.05, 2.0

    @staticmethod
    def _moments(theta, lo, hi):
        """Integrals of B and B^2 over [lo, hi] to second order in theta."""
        p = lambda k: hi ** k - lo ** k
        int_b = p(2) / 2.0 - theta * p(3) / 6.0 + theta ** 2 * p(4) / 24.0
        int_b2 = p(3) / 3.0 - theta * p(4) / 4.0 + 7.0 * theta ** 2 * p(5) / 60.0
        return int_b, int_b2

    @pytest.mark.parametrize("theta", [1e-9, 1e-7, 1e-5])
    def test_bond_price(self, theta):
        mu_r, lam, sr, tau = 0.04, 0.1, self.SIGMA_R, self.TAU
        model = VasicekModel(theta=theta, mu_r=mu_r, sigma_r=sr, lam=lam)
        int_b, int_b2 = self._moments(theta, 0.0, tau)
        b = tau - theta * tau ** 2 / 2.0 + theta ** 2 * tau ** 3 / 6.0
        ref = math.exp(-(theta * mu_r - lam * sr) * int_b + 0.5 * sr * sr * int_b2
                       - b * self.R)
        assert bond_price(model, self.R, 0.0, tau) == pytest.approx(ref, rel=1e-13)
        limit = math.exp(-self.R * tau + lam * sr * tau ** 2 / 2.0 + sr * sr * tau ** 3 / 6.0)
        assert bond_price(model, self.R, 0.0, tau) == pytest.approx(limit, rel=theta * tau)

    @pytest.mark.parametrize("theta", [1e-9, 1e-7, 1e-5])
    @pytest.mark.parametrize("sigma_a, rho, t_exercise",
                             [(0.0, 0.0, 2.0), (0.2, 0.3, 1.0), (0.2, -0.6, 0.5)])
    def test_integrated_variance(self, theta, sigma_a, rho, t_exercise):
        sr, tau = self.SIGMA_R, self.TAU
        model = VasicekModel(theta=theta, mu_r=0.05, sigma_r=sr)
        # s = tau - u runs over [tau - t_exercise, tau]
        int_b, int_b2 = self._moments(theta, tau - t_exercise, tau)
        ref = sigma_a ** 2 * t_exercise + 2.0 * rho * sigma_a * sr * int_b + sr * sr * int_b2
        got = integrated_variance(model, sigma_a, rho, 0.0, t_exercise, tau)
        assert got == pytest.approx(ref, rel=1e-13)
        if sigma_a == 0.0:
            assert got == pytest.approx(sr * sr * tau ** 3 / 3.0, rel=theta * tau)
