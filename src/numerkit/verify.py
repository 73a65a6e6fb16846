"""Cross-engine agreement checks.

For each product this module wires up every independent pricing route we have:

  analytic      closed form from :mod:`numerkit.analytic`
  pde_full      two-factor finite-difference solve of the original equation
  pde_reduced   numeraire * one-factor solve of the quotient equation
  quadrature    direct Gaussian integration of the reduced problem
  monte_carlo   simulation under the quote-currency money-market measure

and condenses the comparison into an :class:`AgreementReport`.  A suite run
over the default product scenarios serializes to JSON or CSV with full float
precision, byte-stable across repeated runs with the same configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import analytic, ratecurve
from .errors import PricingError
from .model import (
    Convertible,
    Corporate,
    Esop,
    FxStrike,
    PriceQuote,
    Savings,
    product_to_dict,
    quote_to_dict,
    require_valid,
)
from .montecarlo import McSpec, price_mc
from .numeraire import ReducedProblem, quadrature_price
from .pde import GridSpec, Pde2Spec, derive_reduced, solve_1d, solve_2d

DETERMINISTIC_METHODS = ("analytic", "pde_full", "pde_reduced", "quadrature")
ALL_METHODS = DETERMINISTIC_METHODS + ("monte_carlo",)


@dataclass(frozen=True)
class ProductEngines:
    """Adapters binding one pricing formula to every engine.

    ``state0`` is the two-factor coordinate of the stored initial state, the
    anchor of ``pde2``; ``analytic_at`` prices off-anchor states of the same
    solve.  The reduced problem carries its own clock (piecewise-constant
    diffusions enter through an equivalent constant-variance maturity), so
    quadrature values need the ``reduced_multiplier`` times F evaluated at
    ``reduced_state``.

    ``numeraire_axis`` is None when this particular two-factor formulation is
    not degree-one homogeneous (the dollar-measure translated-strike system);
    such a bundle prices with the full solver only, and ``to_canonical``
    rescales a sibling bundle's value into this product's quote currency.
    """

    label: str
    analytic_at: Callable[[float, float], float]
    pde2: Pde2Spec
    numeraire_axis: Optional[int]
    reduced: ReducedProblem
    reduced_state: float
    reduced_multiplier: float
    to_canonical: float = 1.0

    @property
    def state0(self) -> tuple:
        return self.pde2.anchor


def _esop_engines(spec: Esop) -> tuple:
    sig, r = spec.sigma, spec.rate
    t0, t1 = spec.t_reset, spec.maturity
    gap = t1 - t0
    beta = spec.beta
    strike_factor = math.exp(-r * gap)

    def sigma0(t: float) -> float:
        return sig if t < t0 else 0.0

    def terminal(x, y):
        return (1.0 - beta) * x + beta * np.maximum(x - strike_factor * y, 0.0)

    pde2 = Pde2Spec(
        diffusion_xx=lambda t: sig * sig,
        diffusion_xy=lambda t: sig * sigma0(t),
        diffusion_yy=lambda t: sigma0(t) ** 2,
        drift_x=lambda t, X, Y: r,
        drift_y=lambda t, X, Y: r,
        discount=lambda t, X, Y: r,
        terminal=terminal,
        maturity=t1,
        anchor=(spec.spot, spec.spot),
        breakpoints=(t0,),
    )

    reduced = ReducedProblem(
        b_matrix=np.array([[sig * sig]]),
        payoff_f=lambda z: float((1.0 - beta) * z[0]
                                 + beta * max(z[0] - strike_factor, 0.0)),
        maturity=gap,
        kinks=(strike_factor,),
    )

    return (ProductEngines(
        label="esop",
        analytic_at=lambda x, y: analytic.esop_price_generalized(spec, x, y, 0.0),
        pde2=pde2,
        numeraire_axis=1,
        reduced=reduced,
        reduced_state=1.0,
        reduced_multiplier=spec.spot,
    ),)


def _fx_engines(spec: FxStrike) -> tuple:
    ss, sx, rho = spec.sigma_s, spec.sigma_x, spec.rho
    rd, rp = spec.r_d, spec.r_p
    tau = spec.maturity
    strike = spec.spot * spec.fx
    y0 = 1.0 / spec.fx
    var_rate = ss * ss + 2.0 * rho * ss * sx + sx * sx

    usd = Pde2Spec(
        diffusion_xx=lambda t: ss * ss,
        diffusion_xy=lambda t: rho * ss * sx,
        diffusion_yy=lambda t: sx * sx,
        drift_x=lambda t, X, Y: rp - rho * ss * sx,
        drift_y=lambda t, X, Y: rd - rp,
        discount=lambda t, X, Y: rd,
        terminal=lambda x, y: np.maximum(x * y - strike, 0.0),
        maturity=tau,
        anchor=(spec.spot, spec.fx),
    )
    gbp = Pde2Spec(
        diffusion_xx=lambda t: ss * ss,
        diffusion_xy=lambda t: -rho * ss * sx,
        diffusion_yy=lambda t: sx * sx,
        drift_x=lambda t, X, Y: rp,
        drift_y=lambda t, X, Y: rp - rd,
        discount=lambda t, X, Y: rp,
        terminal=lambda x, y: np.maximum(x - strike * y, 0.0),
        maturity=tau,
        anchor=(spec.spot, y0),
    )

    reduced = ReducedProblem(
        b_matrix=np.array([[var_rate]]),
        payoff_f=lambda z: max(float(z[0]) - strike * math.exp(-rd * tau), 0.0),
        maturity=tau,
        kinks=(strike * math.exp(-rd * tau),),
    )

    usd_engines = ProductEngines(
        label="fx_usd",
        analytic_at=lambda x, y: analytic.fx_option_usd(spec, x, y, 0.0),
        pde2=usd,
        # max(S X - K, 0) is degree-two in (S, X); this system does not quotient
        numeraire_axis=None,
        reduced=reduced,
        reduced_state=spec.spot * spec.fx,
        reduced_multiplier=1.0,
    )
    gbp_engines = ProductEngines(
        label="fx_gbp",
        analytic_at=lambda x, y: analytic.fx_option_gbp(spec, x, y, 0.0),
        pde2=gbp,
        numeraire_axis=1,
        reduced=reduced,
        reduced_state=spec.spot * spec.fx,
        reduced_multiplier=y0,
        to_canonical=spec.fx,
    )
    return (usd_engines, gbp_engines)


def _savings_engines(spec: Savings) -> tuple:
    sx, si, rho = spec.sigma_x, spec.sigma_i, spec.rho
    rd, rf = spec.r_d, spec.r_f
    tau = spec.maturity
    y0 = spec.fx
    x0 = 1.0 / y0
    i0 = spec.price_level
    lead_i = math.exp(rd * tau)
    lead_x = y0 * math.exp(rf * tau)

    pde2 = Pde2Spec(
        diffusion_xx=lambda t: sx * sx,
        diffusion_xy=lambda t: -rho * sx * si,
        diffusion_yy=lambda t: si * si,
        drift_x=lambda t, X, Y: rd - rf,
        drift_y=lambda t, X, Y: 0.0,
        discount=lambda t, X, Y: rd,
        terminal=lambda x, y: np.maximum(lead_i * y, lead_x * x),
        maturity=tau,
        anchor=(x0, i0),
    )

    # quadrature sees the compounded ratio I e^{rd t} / (X e^{rf t}), which is
    # the martingale whose terminal law prices the guarantee as X0 E[max(., Y0)]
    var_rate = sx * sx + 2.0 * rho * sx * si + si * si
    reduced = ReducedProblem(
        b_matrix=np.array([[var_rate]]),
        payoff_f=lambda z: max(float(z[0]), y0),
        maturity=tau,
        kinks=(y0,),
    )

    return (ProductEngines(
        label="savings",
        analytic_at=lambda x, y: analytic.savings_domestic(spec, x, y, 0.0),
        pde2=pde2,
        numeraire_axis=0,
        reduced=reduced,
        reduced_state=i0 / x0,
        reduced_multiplier=x0,
    ),)


def _bond_numeraire_engines(spec, label: str, sigma: float, spot: float,
                            t_ex: float, t_bond: float, terminal, kink: float,
                            closed_form) -> tuple:
    """Engines of a claim on (asset, zero-coupon bond) under Vasicek rates.

    The bond maturing at ``t_bond`` is the numeraire; the claim pays
    ``terminal(asset, bond)`` at ``t_ex``, and its ratio payoff kinks at
    ``kink`` (a kink at or below zero is ignored).  ``closed_form(x, r)`` is
    the analytic price at asset value x and short rate r.
    """
    vas, rho = spec.vasicek, spec.rho
    p0 = ratecurve.bond_price(vas, vas.r0, 0.0, t_bond)

    def rate_fn(t, X, Y):
        # short rate implied by the bond coordinate, r(t, p) = (ln A - ln p)/B
        a = ratecurve.a_factor(vas, t, t_bond)
        return (math.log(a) - np.log(Y)) / ratecurve.b_factor(vas, t, t_bond)

    pde2 = Pde2Spec(
        diffusion_xx=lambda t: sigma * sigma,
        diffusion_xy=lambda t: -rho * sigma * ratecurve.sigma_p(vas, t, t_bond),
        diffusion_yy=lambda t: ratecurve.sigma_p(vas, t, t_bond) ** 2,
        drift_x=rate_fn,
        drift_y=rate_fn,
        discount=rate_fn,
        terminal=terminal,
        maturity=t_ex,
        anchor=(spot, p0),
    )

    var = ratecurve.integrated_variance(vas, sigma, rho, 0.0, t_ex, t_bond)
    reduced = ReducedProblem(
        b_matrix=np.array([[var / t_ex]]),
        payoff_f=lambda z: float(terminal(float(z[0]), 1.0)),
        maturity=t_ex,
        kinks=(kink,),
    )

    def analytic_at(x, y):
        return closed_form(x, ratecurve.short_rate_from_bond(vas, y, 0.0, t_bond))

    return (ProductEngines(
        label=label,
        analytic_at=analytic_at,
        pde2=pde2,
        numeraire_axis=1,
        reduced=reduced,
        reduced_state=spot / p0,
        reduced_multiplier=p0,
    ),)


def _convertible_engines(spec: Convertible) -> tuple:
    return _bond_numeraire_engines(
        spec, "convertible", spec.sigma_s, spec.spot, spec.conv_date,
        spec.bond_maturity, terminal=lambda x, y: np.maximum(x, y), kink=1.0,
        closed_form=lambda x, r: analytic.convertible_price(spec, x, r, 0.0))


def _corporate_engines(spec: Corporate) -> tuple:
    c, face = spec.dilution, spec.face
    return _bond_numeraire_engines(
        spec, "corporate", spec.sigma_v, spec.firm_value, spec.maturity,
        spec.maturity, terminal=lambda x, y: np.maximum(face * y, c * x),
        kink=face / c,
        closed_form=lambda x, r: analytic.corporate_convertible_price(
            spec, x, r, 0.0))


_BUILDERS = {
    Esop: _esop_engines,
    FxStrike: _fx_engines,
    Savings: _savings_engines,
    Convertible: _convertible_engines,
    Corporate: _corporate_engines,
}


def build_engines(product) -> tuple:
    """Engine adapters for a product; FxStrike yields (usd, gbp) variants.

    Raises ValidationFailure on an invalid spec, so no route prices one.
    """
    builder = _BUILDERS.get(type(product))
    if builder is None:
        raise PricingError(f"no engines for {type(product).__name__}")
    require_valid(product)
    return builder(product)


# ---------------------------------------------------------------------------
# agreement reports


@dataclass(frozen=True)
class AgreementReport:
    product: object
    label: str
    quotes: dict
    max_rel_gap_deterministic: float
    mc_z_score: Optional[float]
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "product": product_to_dict(self.product),
            "quotes": {m: quote_to_dict(q) for m, q in self.quotes.items()},
            "max_rel_gap_deterministic": self.max_rel_gap_deterministic,
            "mc_z_score": self.mc_z_score,
            "tol": self.tol,
            "passed": self.passed,
        }


def price_with_method(product, method: str, grid: Optional[GridSpec] = None,
                      mc: Optional[McSpec] = None) -> PriceQuote:
    """One quote in the product's own quote currency, by the chosen route.

    The reduced-PDE route quotients whichever two-factor formulation of the
    product is degree-one homogeneous and rescales back to the canonical
    currency; everything else prices the canonical formulation directly.
    Raises ValidationFailure on an invalid spec.
    """
    if method not in ALL_METHODS:
        raise PricingError(f"unknown method: {method}")
    bundles = build_engines(product)
    engines = bundles[0]
    x0, y0 = engines.state0
    if method == "analytic":
        return PriceQuote(value=engines.analytic_at(x0, y0), method=method)
    if method == "pde_full":
        grid = grid or GridSpec()
        sol2 = solve_2d(engines.pde2, grid)
        return PriceQuote(value=sol2(x0, y0, 0.0), method=method)
    if method == "pde_reduced":
        grid = grid or GridSpec()
        source = next((b for b in bundles if b.numeraire_axis is not None), None)
        if source is None:
            raise PricingError(
                f"no homogeneous two-factor formulation for {engines.label}")
        reduced = derive_reduced(source.pde2, source.numeraire_axis)
        numeraire = source.state0[source.numeraire_axis]
        return PriceQuote(value=source.to_canonical * numeraire * solve_1d(
            reduced, grid)(reduced.anchor, 0.0), method=method)
    if method == "quadrature":
        return PriceQuote(
            value=engines.reduced_multiplier * quadrature_price(
                engines.reduced, engines.reduced_state, 0.0),
            method=method)
    mc = mc or McSpec()
    res = price_mc(product, mc)
    return PriceQuote(value=res.estimate, method="monte_carlo",
                      std_error=res.std_error, seed=mc.seed)


def verify_product(product, grid: Optional[GridSpec] = None,
                   mc: Optional[McSpec] = None, tol: float = 1e-3,
                   methods: Sequence[str] = ALL_METHODS) -> AgreementReport:
    """Price one product along every requested route and compare.

    Deterministic routes are compared pairwise against the closed form by
    relative gap; Monte Carlo by its standardized distance.  ``passed`` means
    every deterministic gap is within ``tol`` and the simulation is within
    three standard errors.
    """
    engines = build_engines(product)[0]
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise PricingError(f"unknown methods: {sorted(unknown)}")
    grid = grid or GridSpec()
    mc = mc or McSpec()

    quotes: dict = {}
    for method in ALL_METHODS:
        if method in methods:
            quotes[method] = price_with_method(product, method, grid=grid, mc=mc)

    reference = quotes.get("analytic")
    max_gap = 0.0
    if reference is not None:
        for name in DETERMINISTIC_METHODS:
            if name == "analytic" or name not in quotes:
                continue
            denom = max(abs(reference.value), abs(quotes[name].value), 1e-12)
            max_gap = max(max_gap, abs(quotes[name].value - reference.value) / denom)
    mc_z = None
    if reference is not None and "monte_carlo" in quotes:
        q = quotes["monte_carlo"]
        if q.std_error and q.std_error > 0.0:
            mc_z = abs(q.value - reference.value) / q.std_error
        else:
            mc_z = 0.0 if q.value == reference.value else math.inf
    passed = max_gap <= tol and (mc_z is None or mc_z <= 3.0)
    return AgreementReport(
        product=product,
        label=engines.label,
        quotes=quotes,
        max_rel_gap_deterministic=max_gap,
        mc_z_score=mc_z,
        tol=tol,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# suites


def default_suite() -> list:
    """The five stock scenarios exercised by the acceptance checks."""
    return [
        Esop(beta=0.85, t_reset=0.5, maturity=1.0, sigma=0.2, rate=0.05,
             spot=100.0),
        FxStrike(sigma_s=0.2, sigma_x=0.1, rho=0.3, r_d=0.05, r_p=0.03,
                 spot=100.0, fx=1.3, maturity=1.0),
        Savings(sigma_x=0.1, sigma_i=0.05, rho=0.2, r_d=0.04, r_f=0.02,
                fx=0.25, price_level=1.0, maturity=1.0),
        Convertible(sigma_s=0.25, rho=0.2, conv_date=1.0, bond_maturity=2.0,
                    spot=1.0,
                    vasicek=ratecurve.VasicekModel(
                        theta=0.5, mu_r=0.05, sigma_r=0.01, lam=0.0, r0=0.03)),
        Corporate(shares=1_000_000, bonds=10_000, conv_rate=2.0, face=1.0,
                  sigma_v=0.3, rho=-0.1, maturity=1.0, firm_value=500_000.0,
                  vasicek=ratecurve.VasicekModel(
                      theta=0.3, mu_r=0.04, sigma_r=0.01, lam=0.0, r0=0.03)),
    ]


def run_suite(products: Optional[Sequence] = None,
              grid: Optional[GridSpec] = None,
              mc: Optional[McSpec] = None,
              tol: float = 1e-3,
              methods: Sequence[str] = ALL_METHODS) -> dict:
    """Verify a list of products and collect a JSON-ready summary."""
    products = default_suite() if products is None else list(products)
    grid = grid or GridSpec()
    mc = mc or McSpec()
    reports = [verify_product(p, grid=grid, mc=mc, tol=tol, methods=methods)
               for p in products]
    worst_gap = max((r.max_rel_gap_deterministic for r in reports), default=0.0)
    z_scores = [r.mc_z_score for r in reports if r.mc_z_score is not None]
    return {
        "config": {
            "grid_nodes": grid.nodes_per_axis,
            "time_steps": grid.time_steps,
            "paths": mc.paths,
            "seed": mc.seed,
            "tol": tol,
            "methods": list(methods),
        },
        "summary": {
            "products": len(reports),
            "passes": sum(r.passed for r in reports),
            "failures": sum(not r.passed for r in reports),
            "worst_rel_gap": worst_gap,
            "worst_mc_z_score": max(z_scores) if z_scores else None,
        },
        "all_passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }


def suite_to_json(suite: dict) -> str:
    return json.dumps(suite, indent=2, sort_keys=False) + "\n"


def suite_to_csv(suite: dict) -> str:
    """Flat per-quote table: product,method,value,std_error,seed."""
    lines = ["product,method,value,std_error,seed"]
    for entry in suite["reports"]:
        label = entry["label"]
        for method, quote in entry["quotes"].items():
            std = quote.get("std_error")
            seed = quote.get("seed")
            lines.append("%s,%s,%.17g,%s,%s" % (
                label, method, quote["value"],
                "" if std is None else "%.17g" % std,
                "" if seed is None else str(seed)))
    return "\n".join(lines) + "\n"
