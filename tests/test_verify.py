"""Cross-engine agreement layer: engine bundles, per-method quotes,
agreement reports, and suite serialization."""

import json
import math
import multiprocessing
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numerkit import cli, ratecurve, verify
from numerkit.errors import PricingError, ValidationFailure
from numerkit.model import Convertible, Corporate, Esop, FxStrike, Savings
from numerkit.montecarlo import McSpec, mc_bond_price, price_mc
from numerkit.pde import GridSpec
from numerkit.products import numeraire_on_y
from numerkit.verify import (
    ALL_METHODS,
    DETERMINISTIC_METHODS,
    build_engines,
    default_suite,
    price_with_method,
    run_suite,
    suite_to_csv,
    suite_to_json,
    verify_product,
)

COARSE = GridSpec(64, 16)
VAS = ratecurve.VasicekModel(theta=0.3, mu_r=0.04, sigma_r=0.01, lam=0.0,
                             r0=0.03)


def _esop_plain(beta=0.0):
    return Esop(beta=beta, t_reset=0.5, maturity=1.0, sigma=0.2, rate=0.05,
                spot=100.0)


def _fx():
    return FxStrike(sigma_s=0.2, sigma_x=0.1, rho=0.3, r_d=0.05, r_p=0.03,
                    spot=100.0, fx=1.3, maturity=1.0)


def _corporate_zero_face():
    return Corporate(shares=1_000_000, bonds=10_000, conv_rate=2.0, face=0.0,
                     sigma_v=0.3, rho=-0.1, maturity=1.0,
                     firm_value=500_000.0, vasicek=VAS)


class TestBuildEngines:
    def test_esop_bundle(self):
        (eng,) = build_engines(_esop_plain(beta=0.85))
        assert eng.label == "esop"
        assert eng.numeraire_axis == 1
        assert eng.anchor == (100.0, 100.0)

    def test_fx_yields_both_measures(self):
        usd, gbp = build_engines(_fx())
        assert usd.label == "fx_usd" and gbp.label == "fx_gbp"
        # the translated-strike dollar system is degree-two, so it cannot
        # quotient; the pound system can, and rescales back at the spot rate
        assert usd.numeraire_axis is None
        assert gbp.numeraire_axis == 1
        assert gbp.to_canonical == pytest.approx(1.3)

    def test_savings_numeraire_is_second_axis(self):
        (eng,) = build_engines(
            Savings(sigma_x=0.1, sigma_i=0.05, rho=0.2, r_d=0.04, r_f=0.02,
                    fx=0.25, price_level=1.0, maturity=1.0))
        assert eng.numeraire_axis == 1
        assert numeraire_on_y(eng) is eng

    def test_unknown_product(self):
        with pytest.raises(PricingError):
            build_engines(object())


class TestPriceWithMethod:
    def test_all_methods_quote(self):
        product = _esop_plain(beta=0.0)
        for method in ALL_METHODS:
            q = price_with_method(product, method, grid=COARSE,
                                  mc=McSpec(paths=2_000, seed=0))
            assert q.method == method
            assert q.value == pytest.approx(100.0, rel=1e-2)
        mc_quote = price_with_method(product, "monte_carlo",
                                     mc=McSpec(paths=2_000, seed=0))
        assert mc_quote.std_error is not None and mc_quote.seed == 0

    def test_fx_reduced_rescales_to_dollars(self):
        # the reduced route solves the pound quotient and converts at spot
        q = price_with_method(_fx(), "pde_reduced", grid=GridSpec(200, 100))
        a = price_with_method(_fx(), "analytic")
        assert q.value == pytest.approx(a.value, rel=1e-3)

    def test_fx_quadrature_matches_closed_form_tightly(self):
        q = price_with_method(_fx(), "quadrature")
        a = price_with_method(_fx(), "analytic")
        assert q.value == pytest.approx(a.value, rel=1e-9)

    def test_unknown_method(self):
        with pytest.raises(PricingError):
            price_with_method(_esop_plain(), "bisection")

    @pytest.mark.parametrize("bad", [
        replace(_esop_plain(0.85), sigma=-0.2),
        replace(_esop_plain(0.85), spot=math.nan),
    ], ids=["negative_sigma", "nan_spot"])
    def test_invalid_spec_rejected_by_every_route(self, bad):
        for method in ALL_METHODS:
            with pytest.raises(ValidationFailure):
                price_with_method(bad, method, grid=COARSE,
                                  mc=McSpec(paths=2_000, seed=0))
        with pytest.raises(ValidationFailure):
            price_mc(bad, McSpec(paths=2_000, seed=0))

    @pytest.mark.parametrize("product", default_suite(),
                             ids=lambda p: type(p).__name__)
    def test_quadrature_zero_volatility_limit(self, product):
        # every volatility at 1e-9 and a deterministic short rate: the
        # reduced variance is ~1e-18 and the quadrature must still price it
        vols = {k: 1e-9 for k in ("sigma", "sigma_s", "sigma_x", "sigma_i",
                                  "sigma_v") if hasattr(product, k)}
        if hasattr(product, "vasicek"):
            vols["vasicek"] = replace(product.vasicek, sigma_r=0.0)
        low = replace(product, **vols)
        q = price_with_method(low, "quadrature")
        a = price_with_method(low, "analytic")
        assert q.value == pytest.approx(a.value, rel=1e-9)


class TestVerifyProduct:
    def test_pure_stock_plan_is_exact(self):
        report = verify_product(_esop_plain(beta=0.0), grid=COARSE,
                                mc=McSpec(paths=20_000, seed=0))
        assert report.label == "esop"
        assert report.max_rel_gap_deterministic <= 1e-12
        assert report.mc_z_score is not None and report.mc_z_score <= 3.0
        assert report.passed

    def test_zero_face_conversion_is_exact(self):
        report = verify_product(_corporate_zero_face(), grid=COARSE,
                                mc=McSpec(paths=20_000, seed=0))
        expected = _corporate_zero_face().dilution * 500_000.0
        assert report.quotes["analytic"].value == pytest.approx(expected,
                                                                rel=1e-14)
        assert report.max_rel_gap_deterministic <= 1e-10
        assert report.passed

    def test_deterministic_payoff_passes(self):
        # sigma_r = 0 and a firm too small ever to convert: every path pays
        # the face at a known discount, so the standard error is rounding
        # noise and the z-score must not divide by it
        product = replace(_corporate_zero_face(), face=1.0, firm_value=1000.0,
                          vasicek=replace(VAS, sigma_r=0.0))
        report = verify_product(product, grid=COARSE,
                                mc=McSpec(paths=20_000, seed=0))
        q = report.quotes["monte_carlo"]
        assert q.std_error < 1e-15
        assert q.value == pytest.approx(report.quotes["analytic"].value,
                                        rel=1e-14)
        assert report.mc_z_score < 1e-2
        assert report.passed

    def test_deterministic_only_skips_z_score(self):
        report = verify_product(_esop_plain(beta=0.0), grid=COARSE,
                                methods=DETERMINISTIC_METHODS)
        assert report.mc_z_score is None
        assert set(report.quotes) == set(DETERMINISTIC_METHODS)

    def test_invalid_product_rejected(self):
        bad = _esop_plain(beta=2.0)
        with pytest.raises(ValidationFailure):
            verify_product(bad, grid=COARSE, methods=("analytic",))

    def test_unknown_method_rejected(self):
        with pytest.raises(PricingError):
            verify_product(_esop_plain(), methods=("analytic", "oracle"))

    def test_tiny_tolerance_fails_report(self):
        report = verify_product(_fx(), grid=COARSE,
                                methods=DETERMINISTIC_METHODS, tol=1e-15)
        assert not report.passed

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_nan_or_negative_tolerance_rejected(self, tol):
        # no gap can meet it, so every report would fail; an empty suite
        # reaches no verify_product, and would write a NaN tol as invalid JSON
        for run in (lambda: verify_product(_esop_plain(beta=0.0), grid=COARSE,
                                           tol=tol, methods=("analytic",)),
                    lambda: run_suite([_esop_plain(beta=0.0)], grid=COARSE,
                                      tol=tol, methods=("analytic",)),
                    lambda: run_suite([], tol=tol)):
            with pytest.raises(ValueError, match="tol"):
                run()

    def test_no_reference_route_rejected(self):
        # every gap is measured from the closed form: without it a run would
        # pass whatever its quotes, so it is refused before any route prices
        esop = default_suite()[0]
        for run in (lambda: verify_product(esop, grid=GridSpec(16, 8),
                                           methods=("pde_full", "quadrature")),
                    lambda: run_suite(grid=GridSpec(16, 8), methods=()),
                    lambda: run_suite([], methods=("quadrature",))):
            with pytest.raises(ValueError, match="analytic"):
                run()

    def test_infinite_tolerance_accepted(self):
        report = verify_product(_esop_plain(beta=0.0), grid=COARSE,
                                methods=("analytic", "quadrature"), tol=math.inf)
        assert report.passed and report.tol == math.inf

    def test_report_dict_shape(self):
        report = verify_product(_esop_plain(beta=0.0), grid=COARSE,
                                methods=("analytic", "quadrature"))
        d = report.to_dict()
        assert d["label"] == "esop"
        assert d["product"]["type"] == "esop"
        assert set(d["quotes"]) == {"analytic", "quadrature"}
        assert isinstance(d["passed"], bool)
        json.dumps(d)


class TestRunSuite:
    def test_default_suite_has_five_products(self):
        products = default_suite()
        assert len(products) == 5
        labels = [build_engines(p)[0].label for p in products]
        assert labels == ["esop", "fx_usd", "savings", "convertible",
                          "corporate"]

    def test_empty_suite(self):
        suite = run_suite([], grid=COARSE, methods=("analytic",))
        assert suite["summary"]["products"] == 0
        assert suite["summary"]["worst_rel_gap"] == 0.0
        assert suite["summary"]["worst_mc_z_score"] is None
        assert suite["all_passed"] is True
        assert suite["reports"] == []

    def test_config_echoed(self):
        suite = run_suite([_esop_plain(beta=0.0)], grid=COARSE,
                          mc=McSpec(paths=2_000, seed=5),
                          methods=("analytic", "monte_carlo"), tol=0.5)
        assert suite["config"] == {
            "grid_nodes": 64, "time_steps": 16, "paths": 2_000, "seed": 5,
            "tol": 0.5, "methods": ["analytic", "monte_carlo"],
        }
        assert suite["summary"]["passes"] + suite["summary"]["failures"] == 1

    def test_serialization_is_byte_stable(self):
        def one_run():
            return run_suite([_esop_plain(beta=0.0), _fx()], grid=COARSE,
                             mc=McSpec(paths=2_000, seed=3))

        a, b = one_run(), one_run()
        assert suite_to_json(a) == suite_to_json(b)
        assert suite_to_csv(a) == suite_to_csv(b)

    def test_csv_layout(self):
        suite = run_suite([_esop_plain(beta=0.0)], grid=COARSE,
                          methods=("analytic", "quadrature"))
        lines = suite_to_csv(suite).splitlines()
        assert lines[0] == "product,method,value,std_error,seed"
        assert len(lines) == 3
        assert lines[1].startswith("esop,analytic,")

    def test_json_round_trips(self):
        suite = run_suite([_esop_plain(beta=0.0)], grid=COARSE,
                          methods=("analytic",))
        assert json.loads(suite_to_json(suite)) == suite


def _exit_on_fx(product, **kwargs):
    """verify_product, but the process ends mid-suite on an FxStrike; at
    module level, so the pool can pickle it."""
    if isinstance(product, FxStrike):
        os._exit(1)
    return verify_product(product, **kwargs)


@pytest.fixture
def two_cpus(monkeypatch):
    """run_suite sees two CPUs, so two or more products go to a pool of
    two forked workers whatever the host."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("run_suite forks its workers")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


class TestPooledSuite:
    """run_suite verifies products in forked workers: the same bytes and the
    same exceptions as in one process, and no worker left behind."""

    def test_same_bytes_as_one_cpu(self, two_cpus, monkeypatch):
        def one_run():
            suite = run_suite(grid=COARSE, mc=McSpec(paths=2_000, seed=3))
            assert multiprocessing.active_children() == []
            return suite_to_json(suite), suite_to_csv(suite)

        pooled = one_run()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert one_run() == pooled

    def test_first_invalid_product_raises_its_violations(self, two_cpus):
        bad, worse = _esop_plain(beta=2.0), replace(_fx(), sigma_s=-1.0, rho=2.0)
        with pytest.raises(ValidationFailure) as expected:
            verify_product(bad, grid=COARSE)
        with pytest.raises(ValidationFailure) as raised:
            run_suite([_esop_plain(), bad, worse], grid=COARSE,
                      methods=DETERMINISTIC_METHODS)
        assert multiprocessing.active_children() == []
        assert raised.value.violations == expected.value.violations
        assert str(raised.value) == str(expected.value)

    def test_dead_worker_is_a_pricing_error(self, two_cpus, monkeypatch):
        monkeypatch.setattr(verify, "verify_product", _exit_on_fx)
        with pytest.raises(PricingError, match="verify worker died"):
            run_suite([_esop_plain(), _fx()], grid=COARSE,
                      methods=DETERMINISTIC_METHODS)
        assert multiprocessing.active_children() == []
        assert cli.main(["verify", "--grid-nodes", "16", "--time-steps", "8",
                         "--paths", "2000"]) == 3
        assert multiprocessing.active_children() == []


def _limit_cases():
    """The default products at the edges of their valid domain."""
    esop, _, savings, convertible, corporate = default_suite()
    cases = []
    for base in (convertible, corporate):
        label, vas = type(base).__name__.lower(), base.vasicek
        for theta, lam in ((1e-5, 0.0), (1e-9, 0.0), (1e-320, 0.0), (5e-324, 0.0),
                           (1e-14, 0.25), (20.0, 0.0), (50.0, 0.0)):
            cases.append(pytest.param(
                replace(base, vasicek=replace(vas, theta=theta, lam=lam)),
                id=f"{label}-theta={theta!r}-lambda={lam!r}"))
        cases.append(pytest.param(replace(base, vasicek=replace(vas, sigma_r=0.0)),
                                  id=f"{label}-sigma_r=0"))
        cases += [pytest.param(replace(base, rho=rho), id=f"{label}-rho={rho:g}")
                  for rho in (-0.999, 0.999)]
    cases.append(pytest.param(replace(corporate, face=0.0), id="corporate-face=0"))
    cases += [pytest.param(replace(savings, rho=rho), id=f"savings-rho={rho:g}")
              for rho in (-0.999, 0.999)]
    cases.append(pytest.param(replace(esop, sigma=1e-9), id="esop-sigma=1e-09"))
    return cases


class TestDegenerateLimits:
    """theta -> 0, large theta, sigma_r = 0, rho -> +-1, face = 0 and
    sigma -> 0 give the same value on every route: each deterministic route
    within 1e-3 of the closed form, Monte Carlo within four standard errors,
    and under Vasicek the simulated bond within four of its closed form."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("product", _limit_cases())
    def test_every_route_agrees(self, product):
        mc = McSpec(paths=200_000, seed=1)
        report = verify_product(product, grid=GridSpec(100, 50), mc=mc)
        assert report.max_rel_gap_deterministic <= 1e-3
        assert report.mc_z_score <= 4.0
        vas = getattr(product, "vasicek", None)
        if vas is not None:
            maturity = (product.bond_maturity if isinstance(product, Convertible)
                        else product.maturity)
            ref = ratecurve.bond_price(vas, vas.r0, 0.0, maturity)
            bond = mc_bond_price(vas, maturity, mc)
            # at sigma_r = 0 the bond is deterministic: floor the standard
            # error at the rounding of the reference, as verify_product does
            assert abs(bond.estimate - ref) <= 4.0 * max(bond.std_error, 1e-12 * ref)


# pde_full at 100 x 50 within the verify tolerance of the closed form, 1e-3
# relative, at any mean-reversion speed: the bond axis follows the path its
# own rate pulls it along, which shortens as theta grows.  Only the rate
# model is drawn; the contract terms are the default products'.  Wider
# terms (long maturities, firm values, faces) are not held yet: see the
# first recorded corporate below and ROADMAP item 1.
_THETA_TOL = 1e-3


@pytest.mark.parametrize("index", [3, 4], ids=["convertible", "corporate"])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(log_theta=st.floats(math.log(0.02), math.log(20.0)), r0=st.floats(0.0, 0.08),
       mu_r=st.floats(0.0, 0.08), sigma_r=st.floats(0.0, 0.03),
       rho=st.floats(-0.5, 0.5))
def test_pde_full_holds_at_any_mean_reversion(index, log_theta, r0, mu_r, sigma_r, rho):
    base = default_suite()[index]
    vasicek = replace(base.vasicek, theta=math.exp(log_theta), r0=r0, mu_r=mu_r,
                      sigma_r=sigma_r)
    product = replace(base, vasicek=vasicek, rho=rho)
    full = price_with_method(product, "pde_full", grid=GridSpec(100, 50)).value
    analytic = price_with_method(product, "analytic").value
    assert abs(full - analytic) <= _THETA_TOL * abs(analytic)


# Two random corporates on which pde_full was silently wrong while its
# axes were sized from the drift at the fixed anchor: 12.34 against 8.79,
# and -1.92e60 against 38.62.  The second is now right to rounding.  The
# first is still off by 2e-3, and its error grows with the number of time
# steps: no node lies on the bond's terminal price 1, and a bond node at log
# distance d from it sees a rate of about d / (T - t) near maturity.
_RECORDED_CORPORATES = [
    pytest.param(Corporate(
        shares=165567, bonds=6364, conv_rate=1.3946760912288938,
        face=4.689374945449323, sigma_v=0.032001682756324604,
        rho=-0.8276130326394435, maturity=4.224173726201591,
        firm_value=1099671.9360215203, vasicek=ratecurve.VasicekModel(
            theta=0.2303702802493358, mu_r=0.04496531823819769,
            sigma_r=0.019843275923064972, lam=-0.046690322377782145,
            r0=0.027485253366492098)),
        marks=pytest.mark.xfail(strict=True, reason="no node on the bond's terminal price"),
        id="theta=0.23"),
    pytest.param(Corporate(
        shares=981930, bonds=55326, conv_rate=0.33354293925096673,
        face=43.726048862535215, sigma_v=0.02397173445742152,
        rho=-0.41009720328149846, maturity=4.424587765337856,
        firm_value=31391.37138187719, vasicek=ratecurve.VasicekModel(
            theta=11.140305483883212, mu_r=0.02720243476838075,
            sigma_r=0.020090862585007155, lam=-0.019773026982397135,
            r0=0.0692476786351838)),
        id="theta=11.1"),
]


@pytest.mark.parametrize("product", _RECORDED_CORPORATES)
def test_pde_full_on_recorded_corporates(product):
    full = price_with_method(product, "pde_full", grid=GridSpec(100, 50)).value
    analytic = price_with_method(product, "analytic").value
    assert abs(full - analytic) <= _THETA_TOL * abs(analytic)
