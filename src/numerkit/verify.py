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
import multiprocessing
import os
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
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
from .products import formulations, numeraire_on_y

DETERMINISTIC_METHODS = ("analytic", "pde_full", "pde_reduced", "quadrature")
ALL_METHODS = DETERMINISTIC_METHODS + ("monte_carlo",)
_ROUNDING = 1e-12  # relative floor of the Monte Carlo z-score's denominator
TOL = 1e-3  # default bound on every deterministic route's gap to the closed form


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


def closed_form(product, label: str) -> Callable[[float, float], float]:
    """The closed form of the product's formulation ``label`` at a state
    (x, y) of its two assets, t = 0; it prices off-anchor states too."""
    return partial(_CLOSED_FORMS[label], product)


def build_engines(product) -> tuple:
    """The product's formulations (:func:`products.formulations`),
    canonical first (FxStrike: usd, gbp); every route but the closed form
    prices from them.  Raises ValidationFailure on an invalid spec, so no
    route prices one."""
    return formulations(product)


def _check_run(tol: float, methods) -> None:
    """PricingError on an unknown method; ValueError on a NaN or negative
    ``tol``, which no gap can meet, or on ``methods`` without "analytic",
    the reference of every gap."""
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise PricingError(f"unknown methods: {sorted(unknown)}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
    if "analytic" not in methods:
        raise ValueError("methods must include analytic, the reference of every check")


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

    The reduced-PDE and quadrature routes both price one quotient
    (``derive_reduced``) of whichever formulation of the product is
    degree-one homogeneous and rescale back to the canonical currency; each
    is checked against the closed form, not against the other.  Everything
    else prices the canonical formulation directly.
    Raises ValidationFailure on an invalid spec, and PricingError when the
    value or the standard error comes out non-finite or the route's
    arithmetic overflows.
    """
    if method not in ALL_METHODS:
        raise PricingError(f"unknown method: {method}")
    try:
        forms = build_engines(product)
        x0, y0 = forms[0].anchor
        if method == "analytic":
            quote = PriceQuote(value=closed_form(product, forms[0].label)(x0, y0),
                               method=method)
        elif method == "pde_full":
            sol2 = solve_2d(forms[0].pde2, grid or GridSpec())
            quote = PriceQuote(value=sol2(x0, y0), method=method)
        elif method == "monte_carlo":
            mc = mc or McSpec()
            res = price_mc(product, mc)
            quote = PriceQuote(value=res.estimate, method=method,
                               std_error=res.std_error, seed=mc.seed)
        else:
            # numeraire_on_y refuses a product with no homogeneous formulation
            source = next((f for f in forms if f.numeraire_axis is not None), forms[0])
            g = numeraire_on_y(source)
            red = derive_reduced(g.pde2)
            scale = g.to_canonical * g.anchor[1]
            if method == "quadrature":
                # the quotient's drift moves into the starting ratio and its
                # discount into the multiplier
                value = scale * math.exp(-red.discount) * quadrature_price(
                    red.variance, red.anchor * math.exp(red.drift), red.terminal,
                    (g.kink,))
            else:
                value = scale * solve_1d(red, grid or GridSpec())(red.anchor)
            quote = PriceQuote(value=value, method=method)
    except OverflowError as exc:  # a float ** or math function out of range
        raise PricingError(
            f"{method}: the arithmetic overflowed (a result is out of the "
            f"double range: {exc})") from None
    if not (math.isfinite(quote.value) and math.isfinite(quote.std_error or 0.0)):
        raise PricingError(f"non-finite quote: {quote}")
    return quote


def verify_product(product, grid: Optional[GridSpec] = None,
                   mc: Optional[McSpec] = None, tol: float = TOL,
                   methods: Sequence[str] = ALL_METHODS) -> AgreementReport:
    """Price one product along every requested route and compare.

    Deterministic routes are compared pairwise against the closed form by
    relative gap; Monte Carlo by its standardized distance, whose standard
    error is floored at 1e-12 of the closed form (the rounding of a payoff
    that is deterministic).  ``passed`` means every deterministic gap is
    within ``tol`` and the simulation is within three standard errors.
    Raises PricingError on an unknown method, and ValueError on a NaN or
    negative ``tol``, which no gap can meet, or on ``methods`` without
    "analytic"; either before any route prices.
    """
    label = build_engines(product)[0].label
    _check_run(tol, methods)
    quotes = {m: price_with_method(product, m, grid=grid, mc=mc)
              for m in ALL_METHODS if m in methods}
    ref = quotes["analytic"].value
    max_gap = max(abs(q.value - ref) / max(abs(ref), abs(q.value), 1e-12)
                  for m, q in quotes.items() if m in DETERMINISTIC_METHODS)
    mc_z = None
    if "monte_carlo" in quotes:
        q = quotes["monte_carlo"]
        # a deterministic payoff has a standard error of rounding size
        scale = max(q.std_error, _ROUNDING * abs(ref), sys.float_info.min)
        mc_z = abs(q.value - ref) / scale
    passed = max_gap <= tol and (mc_z is None or mc_z <= 3.0)
    return AgreementReport(
        product=product,
        label=label,
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
              tol: float = TOL,
              methods: Sequence[str] = ALL_METHODS) -> dict:
    """Verify a list of products and collect a JSON-ready summary; refuses
    the methods and tol that ``verify_product`` refuses, even with no
    products.  Products are verified concurrently in forked workers, one per
    available CPU, with byte-identical output; a dead worker is a PricingError."""
    _check_run(tol, methods)
    products = default_suite() if products is None else list(products)
    grid = grid or GridSpec()
    mc = mc or McSpec()
    check = partial(verify_product, grid=grid, mc=mc, tol=tol, methods=methods)
    workers = min(len(products), len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    # fork: a spawned worker would import numpy and scipy again, about 0.6 s
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        reports = list(map(check, products))
    else:
        try:
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
                reports = list(pool.map(check, products))
        except BrokenExecutor as exc:  # a worker died, so no result is coming
            raise PricingError(f"a verify worker died: {exc}") from exc
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
