"""Cross-engine agreement checks.

For each product this module runs every independent pricing route we have,
all but the closed form derived from the product's description in
:mod:`numerkit.products`:

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
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

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
)
from .montecarlo import McSpec, price_mc
from .numeraire import quadrature_price
from .pde import GridSpec, derive_reduced, solve_1d, solve_2d
from .products import (
    Formulation,
    formulations,
    numeraire_on_y,
    pde2_spec,
    quadrature_problem,
)

DETERMINISTIC_METHODS = ("analytic", "pde_full", "pde_reduced", "quadrature")
ALL_METHODS = DETERMINISTIC_METHODS + ("monte_carlo",)
_ROUNDING = 1e-12  # relative floor of the Monte Carlo z-score's denominator


# closed form of each formulation at (x, y), t = 0, by label; a bond
# coordinate is turned back into the short rate by the affine bond formula
_CLOSED_FORMS = {
    "esop": lambda p, x, y: analytic.esop_price_generalized(p, x, y, 0.0),
    "fx_usd": lambda p, x, y: analytic.fx_option_usd(p, x, y, 0.0),
    "fx_gbp": lambda p, x, y: analytic.fx_option_gbp(p, x, y, 0.0),
    "savings": lambda p, x, y: analytic.savings_domestic(p, x, y, 0.0),
    "convertible": lambda p, x, y: analytic.convertible_price(
        p, x, ratecurve.short_rate_from_bond(p.vasicek, y, 0.0,
                                             p.bond_maturity), 0.0),
    "corporate": lambda p, x, y: analytic.corporate_convertible_price(
        p, x, ratecurve.short_rate_from_bond(p.vasicek, y, 0.0, p.maturity),
        0.0),
}


@dataclass(frozen=True)
class ProductEngines:
    """One formulation of a product and its closed form.

    ``pde2`` is derived from the formulation's dynamics; ``analytic_at``
    prices off-anchor states of the same two-factor problem.  ``state0`` is
    the anchor.  ``numeraire_axis`` is None when the formulation is not
    degree-one homogeneous (the dollar-measure translated-strike system);
    such a bundle prices with the full solver only, and ``to_canonical``
    rescales a sibling bundle's value into this product's quote currency.
    """

    formulation: Formulation
    analytic_at: Callable[[float, float], float]

    label = property(lambda self: self.formulation.label)
    numeraire_axis = property(lambda self: self.formulation.numeraire_axis)
    to_canonical = property(lambda self: self.formulation.to_canonical)
    state0 = property(lambda self: self.formulation.anchor)
    pde2 = property(lambda self: pde2_spec(self.formulation))


def build_engines(product) -> tuple:
    """Engine adapters for a product; FxStrike yields (usd, gbp) variants.

    Raises ValidationFailure on an invalid spec, so no route prices one.
    """
    return tuple(ProductEngines(f, partial(_CLOSED_FORMS[f.label], product))
                 for f in formulations(product))


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

    The reduced-PDE and quadrature routes quotient whichever formulation of
    the product is degree-one homogeneous and rescale back to the canonical
    currency; everything else prices the canonical formulation directly.
    Raises ValidationFailure on an invalid spec, and PricingError when the
    value or the standard error comes out non-finite.
    """
    if method not in ALL_METHODS:
        raise PricingError(f"unknown method: {method}")
    bundles = build_engines(product)
    engines = bundles[0]
    x0, y0 = engines.state0
    if method == "analytic":
        quote = PriceQuote(value=engines.analytic_at(x0, y0), method=method)
    elif method == "pde_full":
        sol2 = solve_2d(engines.pde2, grid or GridSpec())
        quote = PriceQuote(value=sol2(x0, y0, 0.0), method=method)
    elif method == "monte_carlo":
        mc = mc or McSpec()
        res = price_mc(product, mc)
        quote = PriceQuote(value=res.estimate, method=method,
                           std_error=res.std_error, seed=mc.seed)
    else:
        source = next((b for b in bundles if b.numeraire_axis is not None), None)
        if source is None:
            raise PricingError(
                f"no homogeneous two-factor formulation for {engines.label}")
        if method == "quadrature":
            *args, multiplier = quadrature_problem(source.formulation)
            value = multiplier * quadrature_price(*args)
        else:
            g = numeraire_on_y(source.formulation)
            reduced = derive_reduced(pde2_spec(g))
            value = g.to_canonical * g.anchor[1] * solve_1d(
                reduced, grid or GridSpec())(reduced.anchor, 0.0)
        quote = PriceQuote(value=value, method=method)
    if not (math.isfinite(quote.value) and math.isfinite(quote.std_error or 0.0)):
        raise PricingError(f"non-finite quote: {quote}")
    return quote


def verify_product(product, grid: Optional[GridSpec] = None,
                   mc: Optional[McSpec] = None, tol: float = 1e-3,
                   methods: Sequence[str] = ALL_METHODS) -> AgreementReport:
    """Price one product along every requested route and compare.

    Deterministic routes are compared pairwise against the closed form by
    relative gap; Monte Carlo by its standardized distance, whose standard
    error is floored at 1e-12 of the closed form (the rounding of a payoff
    that is deterministic).  ``passed`` means every deterministic gap is
    within ``tol`` and the simulation is within three standard errors.
    Raises ValueError on a NaN or negative ``tol``, which no gap can meet.
    """
    engines = build_engines(product)[0]
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise PricingError(f"unknown methods: {sorted(unknown)}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
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
        # a deterministic payoff has a standard error of rounding size
        scale = max(q.std_error, _ROUNDING * abs(reference.value),
                    sys.float_info.min)
        mc_z = abs(q.value - reference.value) / scale
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
    """Verify a list of products and collect a JSON-ready summary; raises
    ValueError on a NaN or negative ``tol``, even with no products."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
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
