"""Closed-form pricers: frozen oracles, limits, identities, monotonicity.

Reference values were produced with 40-digit arithmetic (mpmath) or adaptive
quadrature of the defining integrals and are frozen here as decimals.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from numerkit.analytic import (
    bs_call,
    convertible_price,
    corporate_convertible_price,
    esop_price,
    esop_price_after_reset,
    esop_price_generalized,
    fx_option_gbp,
    fx_option_usd,
    norm_cdf,
    savings_domestic,
    savings_foreign,
)
from numerkit.errors import TimeDomainError, ValidationFailure
from numerkit.model import Convertible, Corporate, Esop, FxStrike, Savings, validate
from numerkit.ratecurve import VasicekModel, bond_price, integrated_variance

ESOP = Esop(beta=0.85, t_reset=0.5, maturity=1.0, sigma=0.2, rate=0.05,
            spot=100.0)
FX = FxStrike(sigma_s=0.2, sigma_x=0.1, rho=0.3, r_d=0.05, r_p=0.03,
              spot=100.0, fx=1.3, maturity=1.0)
SAVINGS = Savings(sigma_x=0.1, sigma_i=0.05, rho=0.2, r_d=0.04, r_f=0.02,
                  fx=0.25, price_level=1.0, maturity=1.0)
CONVERTIBLE = Convertible(sigma_s=0.25, rho=0.2, conv_date=1.0,
                          bond_maturity=2.0, spot=1.0,
                          vasicek=VasicekModel(theta=0.5, mu_r=0.05,
                                               sigma_r=0.01, lam=0.0, r0=0.03))
CORPORATE = Corporate(shares=1_000_000, bonds=10_000, conv_rate=2.0, face=1.0,
                      sigma_v=0.3, rho=-0.1, maturity=1.0,
                      firm_value=500_000.0,
                      vasicek=VasicekModel(theta=0.3, mu_r=0.04, sigma_r=0.01,
                                           lam=0.0, r0=0.03))


class TestNormCdf:
    def test_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_tail_saturation(self):
        assert norm_cdf(40.0) == 1.0
        assert norm_cdf(-40.0) == 0.0

    def test_reference_value(self):
        # quadrature of the density over [-12, 1] in 40-digit arithmetic
        assert norm_cdf(1.0) == pytest.approx(0.84134474606854294859,
                                              rel=1e-14)

    def test_symmetry(self):
        for x in np.linspace(-8.0, 8.0, 33):
            assert norm_cdf(-x) == pytest.approx(1.0 - norm_cdf(x), abs=1e-16)

    def test_monotone(self):
        xs = np.linspace(-10.0, 10.0, 101)
        vals = [norm_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestBsCall:
    def test_atm_reference(self):
        # 100 * (2 N(0.1) - 1) in 40-digit arithmetic
        assert bs_call(100.0, 100.0, 0.0, 0.0, 0.2, 1.0) == pytest.approx(
            7.9655674554057962931, rel=1e-13)

    def test_zero_vol(self):
        assert bs_call(110.0, 100.0, 0.0, 0.0, 0.0, 1.0) == 10.0

    def test_zero_tau(self):
        assert bs_call(110.0, 100.0, 0.05, 0.05, 0.2, 0.0) == 10.0
        assert bs_call(90.0, 100.0, 0.05, 0.05, 0.2, 0.0) == 0.0

    def test_zero_strike_is_discounted_forward(self):
        assert bs_call(100.0, 0.0, 0.05, 0.02, 0.2, 2.0) == pytest.approx(
            100.0 * math.exp((0.02 - 0.05) * 2.0), rel=1e-15)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            bs_call(-1.0, 100.0, 0.0, 0.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            bs_call(100.0, 100.0, 0.0, 0.0, -0.2, 1.0)


class TestEsop:
    def test_beta_zero_is_stock(self):
        spec = Esop(beta=0.0, t_reset=0.5, maturity=1.0, sigma=0.2, rate=0.05,
                    spot=100.0)
        assert esop_price(spec, 0.0) == 100.0

    def test_degenerate_window_zero_rate(self):
        # t_reset -> maturity with r = 0: the option leg dies, S (1 - beta)
        spec = Esop(beta=0.85, t_reset=1.0, maturity=1.0, sigma=0.2,
                    rate=0.0, spot=100.0)
        assert esop_price(spec, 0.0) == pytest.approx(15.0, rel=1e-15)

    def test_after_reset_beta_zero(self):
        spec = Esop(beta=0.0, t_reset=0.5, maturity=1.0, sigma=0.2, rate=0.05,
                    spot=100.0)
        assert esop_price_after_reset(spec, 90.0, 123.0, 0.75) == 123.0

    def test_after_reset_terminal_payoff(self):
        val = esop_price_after_reset(ESOP, 100.0, 130.0, 1.0 - 1e-12)
        payoff = 0.15 * 130.0 + 0.85 * 30.0
        assert val == pytest.approx(payoff, rel=1e-12)

    def test_pre_and_post_reset_agree_at_reset(self):
        pre = esop_price(ESOP, ESOP.t_reset)
        post = esop_price_after_reset(ESOP, ESOP.spot, ESOP.spot, ESOP.t_reset)
        assert pre == pytest.approx(post, rel=1e-14)

    def test_generalized_diagonal(self):
        assert esop_price_generalized(ESOP, 100.0, 100.0, 0.0) == \
            pytest.approx(esop_price(ESOP, 0.0), rel=1e-14)

    def test_time_domain(self):
        with pytest.raises(TimeDomainError):
            esop_price(ESOP, 0.6)
        with pytest.raises(TimeDomainError):
            esop_price_after_reset(ESOP, 100.0, 100.0, 0.4)

    def test_nonincreasing_in_beta(self):
        # dV/dbeta = S [N(d1) - e^{-r gap} N(d2) - 1] <= 0
        for rate in (-0.02, 0.0, 0.05, 0.15):
            for sigma in (0.05, 0.2, 0.6):
                vals = []
                for beta in np.linspace(0.0, 1.0, 11):
                    spec = Esop(beta=float(beta), t_reset=0.5, maturity=1.0,
                                sigma=sigma, rate=rate, spot=100.0)
                    vals.append(esop_price(spec, 0.0))
                assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestFxOption:
    def test_usd_terminal(self):
        val = fx_option_usd(FX, 130.0, 1.3, 1.0 - 1e-12)
        assert val == pytest.approx(130.0 * 1.3 - 130.0, rel=1e-12)
        assert fx_option_usd(FX, 80.0, 1.1, 1.0 - 1e-12) == 0.0

    def test_gbp_terminal(self):
        # strike in dollars is S0 X0 = 130; in pounds at y it is 130 y = 100
        y = 1.0 / 1.3
        val = fx_option_gbp(FX, 130.0, y, 1.0 - 1e-12)
        assert val == pytest.approx(130.0 - 130.0 * y, rel=1e-12)

    def test_degenerate_variance(self):
        spec = FxStrike(sigma_s=0.2, sigma_x=0.2, rho=-1.0, r_d=0.05,
                        r_p=0.03, spot=100.0, fx=1.3, maturity=1.0)
        expect = max(110.0 * 1.25 - 130.0 * math.exp(-0.05), 0.0)
        assert fx_option_usd(spec, 110.0, 1.25, 0.0) == pytest.approx(
            expect, rel=1e-15)

    def test_quote_currency_identity_random_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            spec = FxStrike(
                sigma_s=float(rng.uniform(0.05, 0.6)),
                sigma_x=float(rng.uniform(0.02, 0.4)),
                rho=float(rng.uniform(-0.95, 0.95)),
                r_d=float(rng.uniform(-0.02, 0.1)),
                r_p=float(rng.uniform(-0.02, 0.1)),
                spot=float(rng.uniform(10.0, 500.0)),
                fx=float(rng.uniform(0.2, 5.0)),
                maturity=float(rng.uniform(0.1, 5.0)))
            s = spec.spot * float(rng.uniform(0.5, 2.0))
            x = spec.fx * float(rng.uniform(0.5, 2.0))
            t = spec.maturity * float(rng.uniform(0.0, 0.95))
            usd = fx_option_usd(spec, s, x, t)
            gbp = fx_option_gbp(spec, s, 1.0 / x, t)
            assert x * gbp == pytest.approx(usd, rel=1e-12)


class TestSavings:
    def test_terminal_exact(self):
        x0 = 1.0 / SAVINGS.fx
        tau = SAVINGS.maturity
        val = savings_domestic(SAVINGS, x0 * 1.4, 1.0, tau)
        expect = max(math.exp(0.04 * tau),
                     x0 * 1.4 * SAVINGS.fx * math.exp(0.02 * tau))
        assert val == expect

    def test_at_the_money_floor(self):
        # lead legs tie at t=0, so the value is 2 N(sv/2) >= 1
        x0 = 1.0 / SAVINGS.fx
        var = (SAVINGS.sigma_x ** 2
               + 2 * SAVINGS.rho * SAVINGS.sigma_x * SAVINGS.sigma_i
               + SAVINGS.sigma_i ** 2)
        sv = math.sqrt(var * SAVINGS.maturity)
        val = savings_domestic(SAVINGS, x0, 1.0, 0.0)
        assert val == pytest.approx(2.0 * norm_cdf(0.5 * sv), rel=1e-14)
        assert val >= 1.0

    def test_degenerate_variance_branch(self):
        spec = Savings(sigma_x=0.1, sigma_i=0.1, rho=-1.0, r_d=0.04, r_f=0.02,
                       fx=0.25, price_level=1.0, maturity=1.0)
        val = savings_domestic(spec, 4.4, 1.0, 0.5)
        expect = max(math.exp(0.04 * 0.5), 4.4 * 0.25 * math.exp(0.02 * 0.5))
        assert val == expect

    def test_quote_currency_identity_random_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            spec = Savings(
                sigma_x=float(rng.uniform(0.02, 0.4)),
                sigma_i=float(rng.uniform(0.005, 0.2)),
                rho=float(rng.uniform(-0.95, 0.95)),
                r_d=float(rng.uniform(-0.02, 0.1)),
                r_f=float(rng.uniform(-0.02, 0.1)),
                fx=float(rng.uniform(0.1, 10.0)),
                price_level=float(rng.uniform(0.5, 2.0)),
                maturity=float(rng.uniform(0.1, 5.0)))
            y = float(rng.uniform(0.1, 10.0))
            i = float(rng.uniform(0.5, 2.0))
            t = spec.maturity * float(rng.uniform(0.0, 1.0))
            foreign = savings_foreign(spec, y, i, t)
            domestic = savings_domestic(spec, 1.0 / y, i, t)
            assert foreign == pytest.approx(y * domestic, rel=1e-12)


class TestConvertible:
    def test_terminal_max(self):
        t = CONVERTIBLE.conv_date - 1e-12
        p = bond_price(CONVERTIBLE.vasicek, 0.03, t, CONVERTIBLE.bond_maturity)
        assert convertible_price(CONVERTIBLE, 1.3 * p, 0.03, t) == \
            pytest.approx(1.3 * p, rel=1e-12)
        assert convertible_price(CONVERTIBLE, 0.7 * p, 0.03, t) == \
            pytest.approx(p, rel=1e-12)

    def test_deterministic_rates_reduce_to_exchange(self):
        spec = Convertible(sigma_s=0.25, rho=0.0, conv_date=1.0,
                           bond_maturity=2.0, spot=1.0,
                           vasicek=VasicekModel(theta=0.5, mu_r=0.05,
                                                sigma_r=0.0, lam=0.0, r0=0.03))
        p = bond_price(spec.vasicek, 0.03, 0.0, 2.0)
        expect = p + bs_call(1.0, p, 0.0, 0.0, 0.25, 1.0)
        assert convertible_price(spec, 1.0, 0.03, 0.0) == pytest.approx(
            expect, rel=1e-14)

    def test_dominates_bond(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            spec = Convertible(
                sigma_s=float(rng.uniform(0.05, 0.6)),
                rho=float(rng.uniform(-0.9, 0.9)),
                conv_date=1.0, bond_maturity=2.0,
                spot=float(rng.uniform(0.2, 3.0)),
                vasicek=VasicekModel(theta=float(rng.uniform(0.1, 1.5)),
                                     mu_r=0.05,
                                     sigma_r=float(rng.uniform(0.0, 0.03)),
                                     lam=0.0, r0=0.03))
            r = float(rng.uniform(-0.01, 0.12))
            p = bond_price(spec.vasicek, r, 0.0, 2.0)
            assert convertible_price(spec, spec.spot, r, 0.0) >= p - 1e-15

    def test_time_domain(self):
        with pytest.raises(TimeDomainError):
            convertible_price(CONVERTIBLE, 1.0, 0.03, 1.5)


class TestCorporate:
    def test_zero_face_exact(self):
        spec = Corporate(shares=1_000_000, bonds=10_000, conv_rate=2.0,
                         face=0.0, sigma_v=0.3, rho=-0.1, maturity=1.0,
                         firm_value=500_000.0, vasicek=CORPORATE.vasicek)
        expect = spec.dilution * 500_000.0
        assert corporate_convertible_price(spec, 500_000.0, 0.03, 0.0) == expect

    def test_terminal_max(self):
        t = CORPORATE.maturity - 1e-12
        c = CORPORATE.dilution
        v_hi = 1.3 * CORPORATE.face / c
        v_lo = 0.7 * CORPORATE.face / c
        assert corporate_convertible_price(CORPORATE, v_hi, 0.03, t) == \
            pytest.approx(c * v_hi, rel=1e-12)
        assert corporate_convertible_price(CORPORATE, v_lo, 0.03, t) == \
            pytest.approx(CORPORATE.face, rel=1e-12)

    def test_zero_vol_deterministic(self):
        spec = Corporate(shares=100, bonds=0, conv_rate=2.0, face=1.0,
                         sigma_v=1e-14, rho=0.0, maturity=1.0,
                         firm_value=500.0,
                         vasicek=VasicekModel(theta=0.5, mu_r=0.05,
                                              sigma_r=0.0, lam=0.0, r0=0.03))
        p = bond_price(spec.vasicek, 0.03, 0.0, 1.0)
        expect = p + max(spec.dilution * 500.0 - p, 0.0)
        assert corporate_convertible_price(spec, 500.0, 0.03, 0.0) == \
            pytest.approx(expect, rel=1e-14)


class TestDomainSweep:
    def test_prices_nonnegative_and_finite(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            beta = float(rng.uniform(0.0, 1.0))
            spec = Esop(beta=beta, t_reset=0.5, maturity=1.0,
                        sigma=float(rng.uniform(0.01, 0.8)),
                        rate=float(rng.uniform(-0.05, 0.15)), spot=100.0)
            v = esop_price(spec, float(rng.uniform(0.0, 0.5)))
            assert math.isfinite(v) and v >= 0.0
            v = fx_option_usd(FX, float(rng.uniform(10.0, 400.0)),
                              float(rng.uniform(0.3, 4.0)),
                              float(rng.uniform(0.0, 1.0)))
            assert math.isfinite(v) and v >= 0.0
            v = savings_domestic(SAVINGS, float(rng.uniform(0.5, 20.0)),
                                 float(rng.uniform(0.2, 4.0)),
                                 float(rng.uniform(0.0, 1.0)))
            assert math.isfinite(v) and v >= 0.0


_NAN, _INF = math.nan, math.inf


class TestNonFiniteInputs:
    """A NaN or infinite state or rate is refused with ValueError by every
    entry point: NaN passes a test such as x <= 0, and each would otherwise
    return nan or inf or fail inside the math library."""

    @pytest.mark.parametrize("pricer, args", [
        pytest.param(bs_call, (_NAN, 100.0, 0.0, 0.0, 0.2, 1.0), id="bs_call-spot-nan"),
        pytest.param(bs_call, (_INF, 100.0, 0.0, 0.0, 0.2, 1.0), id="bs_call-spot-inf"),
        pytest.param(bs_call, (100.0, _NAN, 0.0, 0.0, 0.2, 1.0), id="bs_call-strike-nan"),
        pytest.param(bs_call, (100.0, _INF, 0.0, 0.0, 0.2, 1.0), id="bs_call-strike-inf"),
        pytest.param(bs_call, (100.0, 100.0, _NAN, 0.0, 0.2, 1.0), id="bs_call-rate-nan"),
        pytest.param(bs_call, (100.0, 100.0, 0.0, -_INF, 0.2, 1.0), id="bs_call-carry-inf"),
        pytest.param(bs_call, (100.0, 100.0, 0.0, 0.0, _NAN, 1.0), id="bs_call-vol-nan"),
        pytest.param(bs_call, (100.0, 100.0, 0.0, 0.0, 0.2, _INF), id="bs_call-tau-inf"),
        # the spot is esop_price's state, refused as the others are
        pytest.param(esop_price, (replace(ESOP, spot=-5.0),), id="esop-spot-negative"),
        pytest.param(esop_price_generalized, (ESOP, _NAN, 100.0, 0.0), id="esop_generalized-s-nan"),
        pytest.param(esop_price_generalized, (ESOP, 100.0, _INF, 0.0), id="esop_generalized-s0-inf"),
        pytest.param(esop_price_after_reset, (ESOP, _NAN, 100.0, 0.75), id="esop_after_reset-s_reset-nan"),
        pytest.param(esop_price_after_reset, (ESOP, 100.0, _NAN, 0.75), id="esop_after_reset-s-nan"),
        pytest.param(fx_option_usd, (FX, _NAN, 1.3), id="fx_usd-s-nan"),
        pytest.param(fx_option_usd, (FX, 100.0, _INF), id="fx_usd-x-inf"),
        pytest.param(fx_option_gbp, (FX, _NAN, 0.75), id="fx_gbp-s-nan"),
        pytest.param(fx_option_gbp, (FX, 100.0, _INF), id="fx_gbp-y-inf"),
        pytest.param(savings_domestic, (SAVINGS, _NAN, 1.0), id="savings_domestic-x-nan"),
        pytest.param(savings_domestic, (SAVINGS, 4.0, _INF), id="savings_domestic-i-inf"),
        pytest.param(savings_foreign, (SAVINGS, _NAN, 1.0), id="savings_foreign-y-nan"),
        pytest.param(savings_foreign, (SAVINGS, 0.25, _NAN), id="savings_foreign-i-nan"),
        pytest.param(convertible_price, (CONVERTIBLE, _NAN, 0.03), id="convertible-s-nan"),
        pytest.param(convertible_price, (CONVERTIBLE, 1.0, _NAN), id="convertible-r-nan"),
        pytest.param(convertible_price, (CONVERTIBLE, 1.0, _INF), id="convertible-r-inf"),
        pytest.param(corporate_convertible_price, (CORPORATE, _INF, 0.03), id="corporate-v-inf"),
        pytest.param(corporate_convertible_price, (CORPORATE, 5e5, _NAN), id="corporate-r-nan"),
    ])
    def test_refused(self, pricer, args):
        with pytest.raises(ValueError, match="finite"):
            pricer(*args)


def _spec_fields(spec):
    """The name of every number of ``spec``, its Vasicek block's as
    ``vasicek.<field>``."""
    names = [f.name for f in fields(spec) if f.name != "vasicek"]
    if hasattr(spec, "vasicek"):
        names += [f"vasicek.{f.name}" for f in fields(spec.vasicek)]
    return names


def _with(spec, name, value):
    if name.startswith("vasicek."):
        return replace(spec, vasicek=replace(spec.vasicek, **{name[8:]: value}))
    return replace(spec, **{name: value})


_PRICERS = [
    ("esop", esop_price, ESOP, ()),
    ("esop_after_reset", esop_price_after_reset, ESOP, (100.0, 110.0, 0.75)),
    ("esop_generalized", esop_price_generalized, ESOP, (100.0, 110.0, 0.0)),
    ("fx_usd", fx_option_usd, FX, (100.0, 1.3)),
    ("fx_gbp", fx_option_gbp, FX, (100.0, 0.75)),
    ("savings_domestic", savings_domestic, SAVINGS, (4.0, 1.0)),
    ("savings_foreign", savings_foreign, SAVINGS, (0.25, 1.0)),
    ("convertible", convertible_price, CONVERTIBLE, (1.0, 0.03)),
    ("corporate", corporate_convertible_price, CORPORATE, (5e5, 0.03)),
]


class TestNonFiniteSpec:
    """A NaN or infinite field of the spec, its Vasicek block's included, is
    refused with ValidationFailure by every product-level pricer, which would
    otherwise price it (esop_price returns nan at sigma = nan)."""

    @pytest.mark.parametrize("pricer, spec, args, name", [
        pytest.param(pricer, spec, args, name, id=f"{label}-{name}")
        for label, pricer, spec, args in _PRICERS for name in _spec_fields(spec)])
    def test_refused(self, pricer, spec, args, name):
        assert math.isfinite(pricer(spec, *args))
        for bad in (_NAN, _INF, -_INF):
            with pytest.raises(ValidationFailure):
                pricer(_with(spec, name, bad), *args)

    @pytest.mark.parametrize("pricer, spec, args", [
        pytest.param(pricer, spec, args, id=label)
        for label, pricer, spec, args in _PRICERS if hasattr(spec, "vasicek")])
    def test_vasicek_field_named_by_its_json_key(self, pricer, spec, args):
        # ``lam`` is "lambda" in every input, so in every refusal too
        bad = _with(spec, "vasicek.lam", _NAN)
        with pytest.raises(ValidationFailure) as exc:
            pricer(bad, *args)
        assert exc.value.violations == validate(bad) == ["vasicek.lambda must be finite"]
