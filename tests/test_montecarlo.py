"""Monte-Carlo engine: determinism, statistical agreement with the closed
forms, and the exact joint laws the samplers draw from.

Statistical checks use fixed seeds and assert |z| < 4, so they are exact
regressions, not flaky assertions: a seed change is a deliberate edit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numerkit import analytic
from numerkit.errors import PricingError, ValidationFailure
from numerkit.model import Convertible, Corporate, Esop, FxStrike, Savings, validate
from numerkit.montecarlo import (
    McSpec,
    _accumulate,
    _gaussian_sampler,
    _psd_root,
    _sampler,
    _vasicek_law,
    mc_bond_price,
    price_mc,
)
from numerkit.products import formulations
from numerkit.ratecurve import VasicekModel, a_factor, b_factor, bond_price

VAS = VasicekModel(theta=0.5, mu_r=0.05, sigma_r=0.01, lam=0.0, r0=0.03)

ESOP = Esop(beta=0.85, t_reset=1.0, maturity=3.0, sigma=0.25, rate=0.04,
            spot=25.0)
FX = FxStrike(sigma_s=0.25, sigma_x=0.12, rho=0.35, r_d=0.03, r_p=0.01,
              spot=100.0, fx=1.3, maturity=1.5)
SAVINGS = Savings(sigma_x=0.1, sigma_i=0.04, rho=-0.2, r_d=0.04, r_f=0.06,
                  fx=1.0, price_level=1.0, maturity=5.0)
CONVERTIBLE = Convertible(sigma_s=0.3, rho=-0.1, conv_date=1.0,
                          bond_maturity=4.0, spot=1.0, vasicek=VAS)
CORPORATE = Corporate(shares=1_000_000, bonds=10_000, conv_rate=20,
                      face=50.0, sigma_v=0.2, rho=0.15, maturity=2.0,
                      firm_value=1.0, vasicek=VAS)


class TestMcSpec:
    def test_defaults(self):
        spec = McSpec()
        assert spec.paths == 100_000 and spec.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            McSpec(paths=0)
        with pytest.raises(ValueError):
            McSpec(seed=-1)

    def test_one_path_refused(self):
        # one antithetic pair has no dispersion: its standard error reads 0
        with pytest.raises(ValueError, match="paths must be at least 2"):
            McSpec(paths=1)
        assert price_mc(ESOP, McSpec(paths=2)).std_error > 0.0

    @pytest.mark.parametrize("kwargs", [dict(paths=1000.0), dict(paths=True),
                                        dict(seed=1.5), dict(seed=False),
                                        dict(seed=np.float64(1.0))])
    def test_counts_must_be_integers(self, kwargs):
        # a fractional seed would key Philox with its integer part
        with pytest.raises(ValueError, match="must be an integer"):
            McSpec(**kwargs)

    def test_numpy_integers_accepted_as_ints(self):
        spec = McSpec(np.int64(64), np.uint64(2 ** 64 - 1))
        assert spec == McSpec(64, 2 ** 64 - 1)
        assert type(spec.paths) is int and type(spec.seed) is int

    def test_seed_fills_one_philox_key_word(self):
        with pytest.raises(ValueError, match="seed"):
            McSpec(seed=2 ** 64)
        # the largest word keys the stream without a cast warning, which
        # pytest raises as an error
        top = price_mc(FX, McSpec(paths=64, seed=2 ** 64 - 1))
        assert math.isfinite(top.estimate)
        assert top.estimate != price_mc(FX, McSpec(paths=64, seed=2 ** 63 - 1)).estimate


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = price_mc(FX, McSpec(paths=20_000, seed=42))
        b = price_mc(FX, McSpec(paths=20_000, seed=42))
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error

    def test_different_seed_different_estimate(self):
        a = price_mc(FX, McSpec(paths=20_000, seed=42))
        b = price_mc(FX, McSpec(paths=20_000, seed=43))
        assert a.estimate != b.estimate

    def test_path_count_independent_prefix(self):
        # block structure: a longer run never perturbs the samples, only
        # extends them, so estimates converge along a single stream
        small = price_mc(FX, McSpec(paths=30_000, seed=6))
        large = price_mc(FX, McSpec(paths=120_000, seed=6))
        assert abs(large.estimate - small.estimate) < 5 * small.std_error


class TestAgreement:
    def test_zero_volatility_is_exact(self):
        # sigma = 0 itself is an invalid spec; the limit is priced just above it
        frozen = FxStrike(sigma_s=1e-9, sigma_x=1e-9, rho=0.0, r_d=0.03,
                          r_p=0.01, spot=100.0, fx=1.3, maturity=1.0)
        res = price_mc(frozen, McSpec(paths=64, seed=1))
        ref = analytic.fx_option_usd(frozen, frozen.spot, frozen.fx)
        assert res.estimate == pytest.approx(ref, rel=1e-12)
        assert res.std_error < 1e-6
        with pytest.raises(ValidationFailure):
            price_mc(replace(frozen, sigma_s=0.0), McSpec(paths=64, seed=1))

    @pytest.mark.parametrize("product,reference,paths", [
        (ESOP, lambda: analytic.esop_price(ESOP), 100_000),
        (FX, lambda: analytic.fx_option_usd(FX, FX.spot, FX.fx), 100_000),
        (SAVINGS, lambda: analytic.savings_domestic(SAVINGS, 1.0, 1.0),
         100_000),
        (CONVERTIBLE,
         lambda: analytic.convertible_price(CONVERTIBLE, 1.0, VAS.r0),
         40_000),
        (CORPORATE,
         lambda: analytic.corporate_convertible_price(CORPORATE, 1.0, VAS.r0),
         40_000),
    ], ids=["esop", "fx", "savings", "convertible", "corporate"])
    def test_within_four_standard_errors(self, product, reference, paths):
        res = price_mc(product, McSpec(paths=paths, seed=7))
        assert res.std_error > 0.0
        assert abs(res.estimate - reference()) < 4.0 * res.std_error

    def test_every_draw_is_paired_with_its_mirror(self):
        # an odd payoff cancels exactly against its antithetic partner
        res = _accumulate(lambda z: 2.0 * z[:, 0], (1,),
                          McSpec(paths=70_000, seed=3))
        assert res.estimate == 0.0 and res.std_error == 0.0

    def test_unknown_product(self):
        with pytest.raises(PricingError):
            price_mc(object(), McSpec(paths=16))

    def test_overflowing_statistics_refused(self):
        # each payoff is finite, but its square (the dispersion) is not: a
        # standard error of inf, refused without a RuntimeWarning, which the
        # suite raises as an error
        with pytest.raises(PricingError, match="non-finite Monte Carlo result"):
            price_mc(replace(ESOP, spot=1e300), McSpec(paths=100))
        with pytest.raises(PricingError, match="non-finite Monte Carlo result"):
            _accumulate(lambda z: np.full(len(z), 1e308), (1,), McSpec(paths=100))


class TestBondPrice:
    def test_against_closed_form(self):
        res = mc_bond_price(VAS, 2.0, McSpec(paths=50_000, seed=11))
        ref = bond_price(VAS, VAS.r0, 0.0, 2.0)
        assert abs(res.estimate - ref) < 3.0 * res.std_error

    def test_deterministic_rates(self):
        flat = VasicekModel(theta=0.5, mu_r=0.05, sigma_r=0.0, lam=0.0,
                            r0=0.05)
        res = mc_bond_price(flat, 3.0, McSpec(paths=32, seed=0))
        assert res.estimate == pytest.approx(math.exp(-0.15), rel=1e-9)

    @pytest.mark.parametrize("maturity", [0.0, -1.0, math.nan, math.inf])
    def test_maturity_must_be_positive_and_finite(self, maturity):
        with pytest.raises(ValueError, match="maturity"):
            mc_bond_price(VAS, maturity, McSpec(paths=1000))

    def test_long_maturity_never_exponentiates_the_asset(self):
        # over a million years the integral of r is about 5e4, so the unused
        # asset leg e^{integral of r} would overflow (a RuntimeWarning, an
        # error under the suite's filter); the bond is e^{-5e4}, zero
        res = mc_bond_price(VasicekModel(0.5, 0.05, 0.01, 0.0, 0.03), 1e6,
                            McSpec(256))
        assert (res.estimate, res.std_error) == (0.0, 0.0)

    @pytest.mark.parametrize("field,value", [
        ("theta", -1.0), ("theta", 0.0), ("sigma_r", -0.01), ("r0", math.nan),
    ])
    def test_invalid_model_refused(self, field, value):
        with pytest.raises(ValidationFailure, match=field):
            mc_bond_price(replace(VAS, **{field: value}), 2.0,
                          McSpec(paths=1000))

    def test_refusal_lists_the_violations_of_the_block_in_a_spec(self):
        bad = replace(VAS, theta=0.0, lam=math.nan)
        with pytest.raises(ValidationFailure) as exc:
            mc_bond_price(bad, 2.0, McSpec(paths=1000))
        spec = Convertible(sigma_s=0.25, rho=0.2, conv_date=1.0, bond_maturity=2.0,
                           spot=1.0, vasicek=bad)
        assert exc.value.violations == validate(spec) == [
            "vasicek.theta must be positive", "vasicek.lambda must be finite"]


PRICED = VasicekModel(theta=0.6, mu_r=0.045, sigma_r=0.02, lam=0.25, r0=0.03)


class TestJointLaw:
    """The exact draw of (r_T, integral of r, log S_T) behind the rate products."""

    @staticmethod
    def _mean(model, sigma_a, rho, horizon, payoff_fn, seed):
        # payoff_fn of the asset at spot one, e^{ln S_T/S_0}, and r_T,
        # discounted by e^{-integral of r}
        payoff, shape = _gaussian_sampler(
            *_vasicek_law(model, sigma_a, rho, horizon),
            lambda g: np.exp(-g[1]) * payoff_fn(np.exp(g[1] + g[2]), g[0]))
        return _accumulate(payoff, shape, McSpec(paths=200_000, seed=seed))

    @pytest.mark.parametrize("model,sigma_a,rho", [
        (VAS, 0.3, -0.1), (PRICED, 0.2, 0.999), (PRICED, 0.25, -0.999),
    ], ids=["vas", "priced_rho_up", "priced_rho_down"])
    def test_discounted_asset_averages_to_spot(self, model, sigma_a, rho):
        res = self._mean(model, sigma_a, rho, 2.0, lambda a, r: a, seed=21)
        assert abs(res.estimate - 1.0) < 4.0 * res.std_error

    @pytest.mark.parametrize("model", [VAS, PRICED], ids=["vas", "priced"])
    def test_discounted_bond_averages_to_closed_form(self, model):
        horizon, t_bond = 1.5, 4.0
        a_fac = a_factor(model, horizon, t_bond)
        b_fac = b_factor(model, horizon, t_bond)
        res = self._mean(model, 0.3, 0.4, horizon,
                         lambda a, r: a_fac * np.exp(-b_fac * r), seed=22)
        ref = bond_price(model, model.r0, 0.0, t_bond)
        assert abs(res.estimate - ref) < 4.0 * res.std_error

    @pytest.mark.parametrize("sigma_r,rho", [
        (0.01, 0.999), (0.01, -0.999), (0.0, 0.5), (0.0, 0.999),
    ])
    def test_square_root_of_singular_covariance(self, sigma_r, rho):
        model = VasicekModel(theta=0.5, mu_r=0.05, sigma_r=sigma_r, r0=0.03)
        cov = _vasicek_law(model, 0.3, rho, 2.0)[1]
        root = _psd_root(cov)
        assert np.all(np.isfinite(root))
        assert np.array_equal(root, np.tril(root))
        assert np.max(np.abs(root @ root.T - cov)) < 1e-15
        if sigma_r == 0.0:
            assert not root[:, :2].any()

    def test_square_root_of_rank_one_matrix(self):
        root = _psd_root(np.ones((3, 3)))
        assert np.array_equal(root, [[1, 0, 0], [1, 0, 0], [1, 0, 0]])

    @pytest.mark.parametrize("sigma_r,rho", [
        (0.0, 0.3), (0.01, 0.999), (0.01, -0.999),
    ], ids=["flat_rates", "rho_up", "rho_down"])
    @pytest.mark.parametrize("product,reference", [
        (CONVERTIBLE, lambda p: analytic.convertible_price(p, 1.0, VAS.r0)),
        # firm value where conversion and the face leg both carry weight
        (replace(CORPORATE, firm_value=3.0e6),
         lambda p: analytic.corporate_convertible_price(p, p.firm_value,
                                                        VAS.r0)),
    ], ids=["convertible", "corporate"])
    def test_degenerate_limits_price(self, product, reference, sigma_r, rho):
        spec = replace(product, rho=rho,
                       vasicek=replace(VAS, sigma_r=sigma_r))
        res = price_mc(spec, McSpec(paths=100_000, seed=7))
        assert math.isfinite(res.estimate) and res.std_error > 0.0
        assert abs(res.estimate - reference(spec)) < 4.0 * res.std_error

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(log_theta=st.floats(math.log(0.02), math.log(50.0)),
           corporate=st.booleans())
    @example(log_theta=math.log(0.02), corporate=False)
    @example(log_theta=math.log(50.0), corporate=True)
    def test_any_mean_reversion_prices(self, log_theta, corporate):
        # the rate law is exact at every theta, from nearly a random walk to
        # a rate pinned to its mean within days
        vasicek = replace(VAS, theta=math.exp(log_theta))
        if corporate:
            spec = replace(CORPORATE, firm_value=3.0e6, vasicek=vasicek)
            ref = analytic.corporate_convertible_price(spec, spec.firm_value, VAS.r0)
        else:
            spec = replace(CONVERTIBLE, vasicek=vasicek)
            ref = analytic.convertible_price(spec, spec.spot, VAS.r0)
        res = price_mc(spec, McSpec(paths=100_000, seed=7))
        assert abs(res.estimate - ref) < 4.0 * res.std_error


class TestLognormalLaw:
    """The exact draw of (X_T, Y_T) behind every constant-rate formulation:
    discounted at the short rate, each asset averages to its spot net of
    its yield, x0 e^{-q_x T} and y0 e^{-q_y T}."""

    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    @pytest.mark.parametrize("product,label", [
        (ESOP, "esop"), (FX, "fx_usd"), (FX, "fx_gbp"), (SAVINGS, "savings"),
    ], ids=["esop", "fx_usd", "fx_gbp", "savings"])
    def test_discounted_assets_average_to_forward_spots(self, product, label,
                                                        axis):
        (f,) = [g for g in formulations(product) if g.label == label]
        leg = replace(f, terminal=lambda x, y: (x, y)[axis])
        payoff, shape = _sampler(leg)
        res = _accumulate(payoff, shape, McSpec(paths=200_000, seed=31))
        ref = f.anchor[axis] * math.exp(-(f.q_x, f.q_y)[axis] * f.maturity)
        assert res.std_error > 0.0
        assert abs(res.estimate - ref) < 4.0 * res.std_error
