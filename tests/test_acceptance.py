"""End-to-end release gate.

Each test evaluates one shipping criterion at its stated tolerance, prints a
single PASS/FAIL line (run ``pytest -s tests/test_acceptance.py`` to see
them), and then asserts.  Everything is recomputed from the public API; no
state is shared between criteria.  Statistical criteria use fixed seeds, so
every number here is a deterministic regression.
"""

import dataclasses
import math
import time

import numpy as np
from scipy.integrate import quad as _quad

from numerkit import analytic, ratecurve
from numerkit.model import covariance_from_loadings
from numerkit.montecarlo import McSpec, mc_bond_price, price_mc
from numerkit.numeraire import certify_psd, quadrature_price
from numerkit.numeraire import reduce as reduce_problem
from numerkit.pde import GridSpec, reduction_gap, solve_2d
from numerkit.products import numeraire_on_y
from numerkit.verify import (
    build_engines,
    closed_form,
    default_suite,
    price_with_method,
    run_suite,
    suite_to_csv,
    suite_to_json,
)

GRID = GridSpec(nodes_per_axis=400, time_steps=200)
VAS = ratecurve.VasicekModel(theta=0.5, mu_r=0.05, sigma_r=0.01, lam=0.0,
                             r0=0.03)


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print("ACCEPTANCE %d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL",
                                         detail))
    return ok


def test_criterion_1_reduction_gap():
    """2-D solve vs numeraire-quotient 1-D solve, rel gap < 1e-3 at 400/200."""
    worst = 0.0
    slowest = 0.0
    for product in default_suite():
        engine = next(b for b in build_engines(product)
                      if b.numeraire_axis is not None)
        start = time.perf_counter()
        gap = reduction_gap(numeraire_on_y(engine).pde2, GRID)
        elapsed = time.perf_counter() - start
        worst = max(worst, gap)
        slowest = max(slowest, elapsed)
    ok = worst < 1e-3 and slowest < 30.0
    assert _report(1, "reduction-gap", ok,
                   "worst rel gap %.3e, slowest product %.1fs"
                   % (worst, slowest))


def test_criterion_2_closed_form_vs_pde():
    """Closed forms vs the full 2-D solver, rel < 5e-4 over a probe grid.

    Three spot scalings times three parameter variants per product family;
    the currency option contributes both its dollar and pound formulations.
    """
    esop, fx, savings, convertible, corporate = default_suite()
    families = [
        [dataclasses.replace(esop, sigma=s) for s in (0.15, 0.2, 0.25)],
        [dataclasses.replace(fx, rho=r) for r in (0.0, 0.3, 0.6)],
        [dataclasses.replace(savings, rho=r) for r in (-0.2, 0.2, 0.5)],
        [dataclasses.replace(convertible, sigma_s=s) for s in (0.2, 0.25, 0.3)],
        [dataclasses.replace(corporate, sigma_v=s) for s in (0.2, 0.3, 0.4)],
    ]
    worst = 0.0
    labels = set()
    start = time.perf_counter()
    for variants in families:
        for product in variants:
            for engine in build_engines(product):
                labels.add(engine.label)
                solution = solve_2d(engine.pde2, GRID)
                x0, y0 = engine.anchor
                for scale in (0.9, 1.0, 1.1):
                    reference = closed_form(product, engine.label)(scale * x0, y0)
                    got = solution(scale * x0, y0)
                    worst = max(worst, abs(got - reference)
                                / max(abs(reference), 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst < 5e-4 and len(labels) == 6
    assert _report(2, "closed-form-vs-pde", ok,
                   "worst rel gap %.3e over %d formulas, %.0fs"
                   % (worst, len(labels), elapsed))


def test_criterion_3_monte_carlo_agreement():
    """One million paths, fixed seed: every product within 3 standard errors."""
    mc = McSpec(paths=1_000_000, seed=0)
    worst_z = 0.0
    slowest = 0.0
    for product in default_suite():
        engine = build_engines(product)[0]
        reference = closed_form(product, engine.label)(*engine.anchor)
        start = time.perf_counter()
        result = price_mc(product, mc)
        elapsed = time.perf_counter() - start
        worst_z = max(worst_z, abs(result.estimate - reference)
                      / result.std_error)
        slowest = max(slowest, elapsed)
    ok = worst_z < 3.0 and slowest < 60.0
    assert _report(3, "monte-carlo-agreement", ok,
                   "worst |z| %.2f, slowest product %.1fs"
                   % (worst_z, slowest))


def test_criterion_4_quadrature_call_accuracy():
    """One-ratio quadrature vs the call formula, rel < 1e-6 over the domain
    z in [0.5, 2] x tau in [0.1, 2]; kernel normalization to 1e-8."""
    worst = 0.0
    call = lambda z: np.maximum(z - 1.0, 0.0)
    for sigma in (0.1, 0.2, 0.4):
        for tau in (0.1, 0.3, 0.5, 1.0, 1.5, 2.0):
            for z in (0.5, 0.6, 0.7, 0.85, 1.0, 1.2, 1.4, 1.7, 2.0):
                reference = analytic.bs_call(z, 1.0, 0.0, 0.0, sigma, tau)
                got = quadrature_price(sigma * sigma * tau, z, call,
                                       kinks=(1.0,))
                worst = max(worst, abs(got - reference) / reference
                            if reference > 0.0 else abs(got))
    worst_norm = 0.0
    for sigma, tau in ((0.1, 0.1), (0.1, 2.0), (0.4, 0.1), (0.4, 2.0)):
        worst_norm = max(worst_norm, abs(quadrature_price(
            sigma * sigma * tau, 1.0, lambda z: 1.0) - 1.0))
    ok = worst < 1e-6 and worst_norm < 1e-8
    assert _report(4, "quadrature-call-accuracy", ok,
                   "worst rel %.3e, worst normalization drift %.3e"
                   % (worst, worst_norm))


def test_criterion_5_psd_certification():
    """1000 random loading matrices: every reduced covariance certifies PSD."""
    rng = np.random.default_rng(20240915)
    payoff = lambda s: float(np.max(s))
    passes = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        loadings = rng.normal(size=(n, k)) * rng.uniform(0.05, 0.6)
        cov = covariance_from_loadings(loadings)
        if certify_psd(reduce_problem(cov, payoff)):
            passes += 1
    ok = passes == 1000
    assert _report(5, "psd-certification", ok, "%d/1000 certified" % passes)


def test_criterion_6_vasicek_rates():
    """Bond formula residual < 1e-6, inversion round-trip to 1e-12, simulated
    bond within 3 standard errors at one million paths, variance integral
    matching adaptive quadrature to 1e-10."""
    priced = ratecurve.VasicekModel(theta=0.6, mu_r=0.045, sigma_r=0.012,
                                    lam=0.25, r0=0.03)
    h = 1e-4
    worst_resid = 0.0
    for model in (VAS, priced):
        for r in (0.0, 0.02, 0.05, 0.08, 0.12):
            for t in (0.0, 0.5, 1.5):
                p = lambda rr, tt: ratecurve.bond_price(model, rr, tt, 2.0)
                p_t = (p(r, t + h) - p(r, t - h)) / (2.0 * h)
                p_r = (p(r + h, t) - p(r - h, t)) / (2.0 * h)
                p_rr = (p(r + h, t) - 2.0 * p(r, t) + p(r - h, t)) / (h * h)
                resid = (p_t + 0.5 * model.sigma_r ** 2 * p_rr
                         + (model.theta * (model.mu_r - r)
                            - model.lam * model.sigma_r) * p_r
                         - r * p(r, t))
                worst_resid = max(worst_resid, abs(resid))

    rng = np.random.default_rng(7)
    worst_trip = 0.0
    for _ in range(200):
        r = float(rng.uniform(-0.02, 0.15))
        t = float(rng.uniform(0.0, 3.0))
        maturity = t + float(rng.uniform(0.05, 10.0))
        price = ratecurve.bond_price(priced, r, t, maturity)
        back = ratecurve.short_rate_from_bond(priced, price, t, maturity)
        worst_trip = max(worst_trip, abs(back - r))

    result = mc_bond_price(VAS, 2.0, McSpec(paths=1_000_000, seed=0))
    z = abs(result.estimate - ratecurve.bond_price(VAS, VAS.r0, 0.0, 2.0)) \
        / result.std_error

    worst_var = 0.0
    for sigma_a, rho, t0, t1 in ((0.25, 0.2, 1.0, 2.0), (0.3, -0.6, 0.5, 4.0),
                                 (0.1, 0.9, 2.0, 2.0)):
        value = ratecurve.integrated_variance(priced, sigma_a, rho, 0.0,
                                              t0, t1)
        reference, _ = _quad(
            lambda u: sigma_a ** 2
            + 2.0 * rho * sigma_a * ratecurve.sigma_p(priced, u, t1)
            + ratecurve.sigma_p(priced, u, t1) ** 2,
            0.0, t0, epsabs=1e-14, epsrel=1e-13)
        worst_var = max(worst_var, abs(value - reference)
                        / max(abs(reference), 1e-12))

    ok = (worst_resid < 1e-6 and worst_trip < 1e-12 and z < 3.0
          and worst_var < 1e-10)
    assert _report(6, "vasicek-rates", ok,
                   "residual %.2e, round-trip %.2e, bond |z| %.2f, "
                   "variance gap %.2e" % (worst_resid, worst_trip, z,
                                          worst_var))


def test_criterion_7_trivial_identities():
    """Structural identities hold to 1e-12 relative."""
    worst = 0.0
    coarse = GridSpec(64, 16)

    def track(got, reference, scale=None):
        nonlocal worst
        denom = abs(reference) if scale is None else scale
        worst = max(worst, abs(got - reference) / denom)

    # beta = 0 plan is just the stock
    esop, fx, savings, convertible, corporate = default_suite()
    plain = dataclasses.replace(esop, beta=0.0)
    for method in ("analytic", "pde_full", "quadrature"):
        track(price_with_method(plain, method, grid=coarse).value, 100.0)

    # zero-face convertible converts on a fixed dilution of firm value
    stock_like = dataclasses.replace(corporate, face=0.0)
    expected = stock_like.dilution * stock_like.firm_value
    for method in ("analytic", "pde_full", "quadrature"):
        track(price_with_method(stock_like, method, grid=coarse).value,
              expected)

    # measure identities: dollars vs pounds, domestic vs foreign
    rng = np.random.default_rng(13)
    for _ in range(200):
        s = float(rng.uniform(50.0, 200.0))
        x = float(rng.uniform(0.5, 2.5))
        track(analytic.fx_option_usd(fx, s, x),
              x * analytic.fx_option_gbp(fx, s, 1.0 / x),
              scale=max(analytic.fx_option_usd(fx, s, x), fx.spot * fx.fx))
        i = float(rng.uniform(0.5, 2.0))
        y = float(rng.uniform(0.1, 0.6))
        track(analytic.savings_foreign(savings, y, i),
              y * analytic.savings_domestic(savings, 1.0 / y, i))

    # terminal limits: 30% off the kink, a breath before expiry
    eps = 1e-12
    beta = esop.beta
    t_term = esop.maturity - eps
    for s in (70.0, 130.0):
        reference = (1.0 - beta) * s + beta * max(s - 100.0, 0.0)
        track(analytic.esop_price_after_reset(esop, 100.0, s, t_term),
              reference)
    strike = fx.spot * fx.fx
    for scale in (0.7, 1.3):
        s = scale * fx.spot
        track(analytic.fx_option_usd(fx, s, fx.fx, fx.maturity - eps),
              max(s * fx.fx - strike, 0.0), scale=strike)
        y = 1.0 / fx.fx
        track(analytic.fx_option_gbp(fx, s, y, fx.maturity - eps),
              max(s - strike * y, 0.0), scale=strike * y)
    lead_i = math.exp(savings.r_d * savings.maturity)
    lead_x = (1.0 / savings.fx) * savings.fx \
        * math.exp(savings.r_f * savings.maturity)
    for scale in (0.7, 1.3):
        i = scale * lead_x / lead_i
        track(analytic.savings_domestic(savings, 1.0 / savings.fx, i,
                                        savings.maturity - eps),
              max(i * lead_i, lead_x))
    vas = convertible.vasicek
    p_conv = ratecurve.bond_price(vas, 0.04, convertible.conv_date,
                                  convertible.bond_maturity)
    for scale in (0.7, 1.3):
        s = scale * p_conv
        track(analytic.convertible_price(convertible, s, 0.04,
                                         convertible.conv_date - eps),
              max(s, p_conv))
    vas_c = corporate.vasicek
    t_term = corporate.maturity - eps
    p_term = ratecurve.bond_price(vas_c, 0.04, t_term, corporate.maturity)
    dilution = corporate.dilution
    for scale in (0.7, 1.3):
        v = scale * corporate.face * p_term / dilution
        track(analytic.corporate_convertible_price(corporate, v, 0.04,
                                                   t_term),
              max(corporate.face * p_term, dilution * v))

    ok = worst < 1e-12
    assert _report(7, "trivial-identities", ok, "worst rel gap %.3e" % worst)


def test_criterion_8_deterministic_serialization():
    """Two suite runs with identical seeds serialize byte-identically."""

    def one_run():
        return run_suite(grid=GridSpec(100, 50),
                         mc=McSpec(paths=20_000, seed=0))

    first, second = one_run(), one_run()
    json_same = suite_to_json(first) == suite_to_json(second)
    csv_same = suite_to_csv(first) == suite_to_csv(second)
    ok = json_same and csv_same
    assert _report(8, "deterministic-serialization", ok,
                   "json identical %s, csv identical %s"
                   % (json_same, csv_same))
