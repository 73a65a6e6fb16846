"""Reference prices for the five numerkit products, independent of numerkit.

Every product is a claim to the better of two traded assets, so its price is
one Margrabe exchange option plus a linear part:

    price = base + margrabe(a, b, v),   margrabe = a N(d1) - b N(d2),

with a and b the present values of the two assets and v the variance of their
log-ratio up to the exercise date.  ``legs`` maps a product, given as the
plain dict that ``numerkit.product_to_dict`` writes, to (base, a, b, v).  The
Vasicek bond price and the bond volatility sigma_P are written out here; the
stock/bond log-ratio variance is integrated numerically, never taken from a
closed form of the program.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

_SQRT2 = math.sqrt(2.0)


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def margrabe(a: float, b: float, v: float) -> float:
    """Value of the right to exchange asset b for asset a: E[max(A - B, 0)].

    ``a`` and ``b`` are the assets' present values, ``v`` the total variance
    of ln(A/B).  At v = 0 the option is worth its intrinsic value.
    """
    if b == 0.0:
        return a
    if v <= 0.0:
        return max(a - b, 0.0)
    s = math.sqrt(v)
    d1 = (math.log(a / b) + 0.5 * v) / s
    return a * norm_cdf(d1) - b * norm_cdf(d1 - s)


def black_scholes_call(spot: float, strike: float, rate: float, vol: float,
                       tau: float) -> float:
    """European call: the exchange of a discounted strike for the stock."""
    return margrabe(spot, strike * math.exp(-rate * tau), vol * vol * tau)


def vasicek_level(vas: dict) -> float:
    """Mean-reversion level under the pricing measure, mu - lambda sigma / theta."""
    return vas["mu_r"] - vas.get("lambda", 0.0) * vas["sigma_r"] / vas["theta"]


def vasicek_bond(vas: dict, tau: float) -> float:
    """Vasicek zero-coupon bond paying 1 after ``tau`` years, from r0."""
    th, sr = vas["theta"], vas["sigma_r"]
    b = (1.0 - math.exp(-th * tau)) / th
    log_a = ((b - tau) * (vasicek_level(vas) - sr * sr / (2.0 * th * th))
             - sr * sr * b * b / (4.0 * th))
    return math.exp(log_a - b * vas["r0"])


def sigma_p(vas: dict, u: float, bond_maturity: float) -> float:
    """Volatility at time u of the bond maturing at ``bond_maturity``."""
    th = vas["theta"]
    return vas["sigma_r"] * (1.0 - math.exp(-th * (bond_maturity - u))) / th


def stock_bond_variance(vas: dict, sigma: float, rho: float, exercise: float,
                        bond_maturity: float) -> float:
    """Variance of ln(stock / bond) accumulated over [0, exercise].

    The bond loads on the rate shock with the opposite sign of the rate, so
    the ratio's instantaneous variance is sigma^2 + 2 rho sigma sigma_P +
    sigma_P^2.
    """
    def rate(u):
        sp = sigma_p(vas, u, bond_maturity)
        return sigma * sigma + 2.0 * rho * sigma * sp + sp * sp

    value, _ = quad(rate, 0.0, exercise, epsabs=1e-15, epsrel=1e-13)
    return value


def legs(p: dict) -> tuple:
    """(base, a, b, v) with price = base + margrabe(a, b, v)."""
    kind = p["type"]
    if kind == "esop":
        # (1 - beta) S_T plus beta calls struck at the reset-date stock price
        gap = p["maturity"] - p["t_reset"]
        s, beta = p["spot"], p["beta"]
        return ((1.0 - beta) * s, beta * s,
                beta * s * math.exp(-p["rate"] * gap), p["sigma"] ** 2 * gap)
    if kind == "fx_strike":
        # dollar stock S X against the strike S0 X0 paid at maturity
        strike = p["spot"] * p["fx"]
        v = (p["sigma_s"] ** 2 + 2.0 * p["rho"] * p["sigma_s"] * p["sigma_x"]
             + p["sigma_x"] ** 2) * p["maturity"]
        return (0.0, strike, strike * math.exp(-p["r_d"] * p["maturity"]), v)
    if kind == "savings":
        # indexed domestic deposit (worth I0) against the foreign deposit
        # translated back (worth Y0 * X0 = 1); X and I are negatively loaded
        v = (p["sigma_x"] ** 2 + 2.0 * p["rho"] * p["sigma_x"] * p["sigma_i"]
             + p["sigma_i"] ** 2) * p["maturity"]
        return (1.0, p["price_level"], 1.0, v)
    if kind == "convertible":
        vas = p["vasicek"]
        bond = vasicek_bond(vas, p["bond_maturity"])
        v = stock_bond_variance(vas, p["sigma_s"], p["rho"], p["conv_date"],
                                p["bond_maturity"])
        return (bond, p["spot"], bond, v)
    if kind == "corporate":
        vas = p["vasicek"]
        c = p["conv_rate"] / (p["shares"] + p["bonds"] * p["conv_rate"])
        bond = p["face"] * vasicek_bond(vas, p["maturity"])
        v = stock_bond_variance(vas, p["sigma_v"], p["rho"], p["maturity"],
                                p["maturity"])
        return (bond, c * p["firm_value"], bond, v)
    raise ValueError(f"no reference price for product type {kind!r}")


def price(p: dict) -> float:
    base, a, b, v = legs(p)
    return base + margrabe(a, b, v)
