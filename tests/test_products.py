"""Product descriptions: what they may depend on, and the quadrature and
reduced PDE they derive against the closed forms on random valid specs."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numerkit import products, ratecurve
from numerkit.errors import PricingError
from numerkit.model import Convertible, Corporate, Esop, FxStrike, Savings
from numerkit.pde import GridSpec, derive_reduced
from numerkit.ratecurve import VasicekModel
from numerkit.verify import default_suite, price_with_method


class TestIndependence:
    """The description feeds every route but the closed form, so it must not
    borrow from the closed forms what the routes check them on."""

    TREE = ast.parse(Path(products.__file__).read_text())

    def test_does_not_import_analytic(self):
        imported = set()
        for node in ast.walk(self.TREE):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
        assert not any("analytic" in name for name in imported)

    def test_does_not_call_closed_form_variance(self):
        names = {node.attr for node in ast.walk(self.TREE)
                 if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(self.TREE)
                  if isinstance(node, ast.Name)}
        assert "integrated_variance" not in names


class TestVasicekBond:
    @pytest.mark.parametrize("theta", [0.05, 0.5, 5.0])
    def test_rate_round_trips_through_the_bond_price(self, theta):
        # Y carries a rounding of a few ulps, and r = (ln A - ln Y) / B
        # divides it by B, which vanishes at maturity: the round trip holds
        # to 1e-15 in B r, relative to ln Y once that exceeds one
        model = VasicekModel(theta=theta, mu_r=0.04, sigma_r=0.01, lam=0.1)
        maturity = 2.0
        rate = products.VasicekBond(model, maturity)
        for t in np.linspace(0.0, 0.99 * maturity, 12).tolist():
            b = ratecurve.b_factor(model, t, maturity)
            for r in np.linspace(-0.05, 0.15, 21).tolist():
                y = ratecurve.bond_price(model, r, t, maturity)
                tol = 1e-15 * max(1.0, abs(math.log(y))) / b
                assert rate(t, 1.0, y) == pytest.approx(r, rel=0.0, abs=tol)
                assert rate(t, 1.0, np.array([y]))[0] == pytest.approx(r, rel=0.0, abs=tol)


class TestFormulations:
    def test_no_numeraire_cannot_quotient(self):
        fx = FxStrike(sigma_s=0.2, sigma_x=0.1, rho=0.3, r_d=0.05, r_p=0.03,
                      spot=100.0, fx=1.3, maturity=1.0)
        usd = products.formulations(fx)[0]
        assert usd.numeraire_axis is None
        with pytest.raises(PricingError):
            products.quadrature_problem(usd)


class TestIntegral:
    @pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
    def test_non_finite_integrand_refused(self, method):
        # sigma^2 overflows: the ratio's variance integrand is inf - inf and
        # the simulated law's inf; both are refused before quad sees them
        esop = Esop(beta=0.85, t_reset=0.5, maturity=1.0, sigma=1e308,
                    rate=0.05, spot=100.0)
        with pytest.raises(PricingError, match="integrand is not finite"):
            price_with_method(esop, method)


class TestPde2Spec:
    def test_one_rate_read_per_evaluation(self, monkeypatch):
        # r - q_x, r - q_y and r come from one read of the bond-implied rate
        f = products.formulations(default_suite()[3])[0]
        assert f.label == "convertible"
        rates = products.pde2_spec(f).rates
        calls = []
        log_affine = ratecurve.log_affine
        monkeypatch.setattr(ratecurve, "log_affine",
                            lambda *a: calls.append(a) or log_affine(*a))
        mux, muy, c = rates(0.3, *f.anchor)
        assert len(calls) == 1
        assert (mux, muy) == (c - f.q_x, c - f.q_y)


class TestNumeraireOnY:
    def test_numeraire_axis_zero(self):
        # savings is quoted in its first asset: the swap makes it y, so the
        # quotient coordinate is the old y over the old x
        f = products.formulations(default_suite()[2])[0]
        assert (f.label, f.numeraire_axis) == ("savings", 0)
        g = products.numeraire_on_y(f)
        assert g.numeraire_axis == 1 and g.anchor == f.anchor[::-1]
        assert (g.sigma_x, g.sigma_y, g.q_x, g.q_y) == (f.sigma_y, f.sigma_x,
                                                          f.q_y, f.q_x)
        red = derive_reduced(products.pde2_spec(g))
        for z in (0.5 * f.kink, f.kink, 2.0 * f.kink):
            assert red.terminal(np.array([z]))[0] == f.terminal(1.0, z)
        # unswapped, the floor and the rising leg would trade places
        z = 0.5 * f.kink
        assert red.terminal(np.array([z]))[0] != f.terminal(z, 1.0)

    def test_numeraire_on_y_kept(self):
        f = products.formulations(default_suite()[3])[0]
        assert products.numeraire_on_y(f) is f


# ---------------------------------------------------------------------------
# derived quadrature against the closed forms on random valid specs

_vol = st.floats(0.02, 0.8)
_rho = st.floats(-0.95, 0.95)
_rate = st.floats(-0.02, 0.1)
_time = st.floats(0.05, 5.0)
_spot = st.floats(0.5, 200.0)
_vasicek = st.builds(
    VasicekModel, theta=st.floats(0.05, 2.0), mu_r=st.floats(-0.01, 0.1),
    sigma_r=st.floats(0.0, 0.03), lam=st.floats(-0.3, 0.3),
    r0=st.floats(-0.02, 0.1))

_PRODUCTS = st.one_of(
    st.builds(lambda beta, t0, gap, sigma, rate, spot: Esop(
        beta=beta, t_reset=t0, maturity=t0 + gap, sigma=sigma, rate=rate,
        spot=spot), st.floats(0.0, 1.0), _time, _time, _vol, _rate, _spot),
    st.builds(FxStrike, sigma_s=_vol, sigma_x=_vol, rho=_rho, r_d=_rate,
              r_p=_rate, spot=_spot, fx=st.floats(0.2, 5.0), maturity=_time),
    st.builds(Savings, sigma_x=_vol, sigma_i=_vol, rho=_rho, r_d=_rate,
              r_f=_rate, fx=st.floats(0.1, 5.0),
              price_level=st.floats(0.5, 2.0), maturity=_time),
    st.builds(lambda sigma, rho, t_ex, gap, spot, vas: Convertible(
        sigma_s=sigma, rho=rho, conv_date=t_ex, bond_maturity=t_ex + gap,
        spot=spot, vasicek=vas), _vol, _rho, _time, _time,
        st.floats(0.2, 5.0), _vasicek),
    st.builds(Corporate, shares=st.integers(1, 10_000_000),
              bonds=st.integers(0, 100_000), conv_rate=st.floats(0.1, 10.0),
              face=st.floats(0.0, 100.0), sigma_v=_vol, rho=_rho,
              maturity=_time, firm_value=st.floats(1.0, 1e7),
              vasicek=_vasicek),
)


def _notional(p) -> float:
    """Today's size of the two legs the claim exchanges, bonds at par."""
    if isinstance(p, Esop):
        return p.spot
    if isinstance(p, FxStrike):
        return p.spot * p.fx
    if isinstance(p, Savings):
        return p.price_level + 1.0
    if isinstance(p, Convertible):
        return p.spot + 1.0
    return p.face + p.dilution * p.firm_value


@settings(derandomize=True, max_examples=400, deadline=None)
@given(product=_PRODUCTS)
def test_derived_quadrature_matches_closed_form(product):
    quadrature = price_with_method(product, "quadrature").value
    analytic = price_with_method(product, "analytic").value
    assert abs(quadrature - analytic) <= 1e-9 * _notional(product)


# ---------------------------------------------------------------------------
# derived reduced PDE against the closed forms, over the parameter ranges the
# benchmark's quote stream draws from (mean reversion kept in 0.2..1)

_u = st.floats
_bench_vasicek = st.builds(
    VasicekModel, theta=_u(0.2, 1.0), mu_r=_u(0.02, 0.07),
    sigma_r=_u(0.005, 0.02), lam=_u(-0.1, 0.1), r0=_u(0.01, 0.06))

_BENCH_PRODUCTS = st.one_of(
    st.builds(lambda maturity, reset, beta, sigma, rate, spot: Esop(
        beta=beta, t_reset=maturity * reset, maturity=maturity, sigma=sigma,
        rate=rate, spot=spot), _u(0.5, 2.0), _u(0.25, 0.75), _u(0.5, 1.0),
        _u(0.1, 0.4), _u(0.0, 0.08), _u(50.0, 150.0)),
    st.builds(FxStrike, sigma_s=_u(0.1, 0.35), sigma_x=_u(0.05, 0.2),
              rho=_u(-0.5, 0.6), r_d=_u(0.0, 0.08), r_p=_u(0.0, 0.08),
              spot=_u(50.0, 150.0), fx=_u(0.8, 1.8), maturity=_u(0.5, 2.0)),
    st.builds(Savings, sigma_x=_u(0.05, 0.2), sigma_i=_u(0.02, 0.1),
              rho=_u(-0.4, 0.6), r_d=_u(0.0, 0.06), r_f=_u(0.0, 0.06),
              fx=_u(0.1, 1.0), price_level=_u(0.8, 1.25),
              maturity=_u(0.5, 2.0)),
    st.builds(lambda sigma, rho, conv, gap, spot, vas: Convertible(
        sigma_s=sigma, rho=rho, conv_date=conv, bond_maturity=conv + gap,
        spot=spot, vasicek=vas), _u(0.15, 0.4), _u(-0.4, 0.4), _u(0.5, 1.5),
        _u(0.5, 1.5), _u(0.7, 1.4), _bench_vasicek),
    st.builds(Corporate, shares=st.just(1_000_000),
              bonds=st.integers(5_000, 20_000), conv_rate=_u(1.0, 3.0),
              face=st.just(1.0), sigma_v=_u(0.2, 0.4), rho=_u(-0.4, 0.4),
              maturity=_u(0.5, 2.0), firm_value=_u(350_000.0, 700_000.0),
              vasicek=_bench_vasicek),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(product=_BENCH_PRODUCTS)
def test_reduced_pde_matches_closed_form(product):
    reduced = price_with_method(product, "pde_reduced",
                                grid=GridSpec(200, 100)).value
    analytic = price_with_method(product, "analytic").value
    assert abs(reduced - analytic) <= 2e-3 * abs(analytic)
