"""Closed-form prices for the shipped product family.

Every formula here is the one-dimensional Black-Scholes-type expression the
corresponding two-factor problem collapses to once prices are quoted in the
natural numeraire (the employer stock at the reset date, the foreign bank
account, the zero-coupon bond, the diluted firm value).  In that numeraire
each claim is one exchange option (Margrabe), so every pricer below reduces
to its input checks (the spec and time by ``_check_spec``, the state by
one policy, ``_require``) plus one call of the kernel ``_exchange`` or of a
twin's pricer.  The finite-difference and Monte Carlo engines verify these.
"""

from __future__ import annotations

import math

from . import ratecurve
from .errors import TimeDomainError, ValidationFailure
from .model import VASICEK_FIELDS, Convertible, Corporate, Esop, FxStrike, Savings

_EPS_VOL = 1e-12


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc, symmetric under x -> -x to rounding."""
    if x >= 0.0:
        return 1.0 - 0.5 * math.erfc(x / math.sqrt(2.0))
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _exchange(a: float, b: float, var: float) -> float:
    """Value of max(A_T - B_T, 0) in units where A and B are martingales.

    ``a`` and ``b`` are today's values of the two legs and ``var`` the
    integrated variance of ln(A/B) to expiry.  The only degenerate-variance
    policy of the module lives here: a worthless second leg leaves ``a``, and
    a vanishing spread volatility leaves the intrinsic value.
    """
    if b == 0.0:
        return a
    sv = math.sqrt(max(var, 0.0))
    if sv < _EPS_VOL:
        return max(a - b, 0.0)
    d1 = (math.log(a / b) + 0.5 * sv * sv) / sv
    return a * norm_cdf(d1) - b * norm_cdf(d1 - sv)


def _require(message: str, *values, low: float = -math.inf,
             closed: bool = False) -> None:
    """The module's one input policy: ValueError(message) unless every value
    is finite and above ``low`` (or equal to it when ``closed``).  NaN fails
    every comparison, so it is refused too."""
    if not all((low <= v if closed else low < v) and v < math.inf for v in values):
        raise ValueError(message)


def _check_spec(spec, t: float, lo: float, hi: float, window: str = "") -> None:
    """ValidationFailure naming each number of the product spec that is not
    finite, its Vasicek block's included under their JSON keys (only that:
    the closed forms price limits ``model.validate`` refuses, a correlation of
    +-1 and a reset on the maturity); then TimeDomainError unless
    lo <= t <= hi."""
    named = dict(vars(spec))
    if "vasicek" in named:
        block = named.pop("vasicek")
        named.update((f"vasicek.{key}", getattr(block, attr))
                     for attr, (key, _) in VASICEK_FIELDS.items())
    bad = [f"{k} must be finite" for k, v in named.items() if not math.isfinite(v)]
    if bad:
        raise ValidationFailure(bad)
    if not lo <= t <= hi:
        raise TimeDomainError(f"t={t} outside {window}[{lo}, {hi}]")


def bs_call(spot: float, strike: float, rate: float, carry: float,
            vol: float, tau: float) -> float:
    """European call, cost-of-carry form.

    Forward = spot * exp(carry * tau), discounting at ``rate``.  The
    strike = 0 and vol * sqrt(tau) = 0 limits come from the kernel.
    """
    _require("spot must be positive and finite", spot, low=0.0)
    _require("strike, vol and tau must be non-negative and finite",
             strike, vol, tau, low=0.0, closed=True)
    _require("rate and carry must be finite", rate, carry)
    return _exchange(spot * math.exp((carry - rate) * tau),
                     strike * math.exp(-rate * tau), vol * vol * tau)


# ---------------------------------------------------------------------------
# employee stock option plan with strike reset


def esop_price(spec: Esop, t: float = 0.0) -> float:
    """Plan value before the reset date (0 <= t <= t_reset).

    Before the reset the plan is worth a fixed fraction of the stock plus a
    calendar-spread option struck at the reset-date price: the two-price
    value ``esop_price_generalized`` on its diagonal, both prices at the spot.
    """
    return esop_price_generalized(spec, spec.spot, spec.spot, t)


def esop_price_after_reset(spec: Esop, s_reset: float, s: float, t: float) -> float:
    """Plan value after the strike has been fixed at the reset-date stock price."""
    _check_spec(spec, t, spec.t_reset, spec.maturity, "the post-reset window ")
    _require("stock prices must be positive and finite", s_reset, s, low=0.0)
    tau = spec.maturity - t
    call = bs_call(s, s_reset, spec.rate, spec.rate, spec.sigma, tau)
    return (1.0 - spec.beta) * s + spec.beta * call


def esop_price_generalized(spec: Esop, s: float, s0: float, t: float) -> float:
    """Pre-reset value off the diagonal s != s0 of the two-price problem.

    ``s0`` is the coordinate that becomes the reset price; on the diagonal
    s0 = s this agrees with ``esop_price``.
    """
    _check_spec(spec, t, 0.0, spec.t_reset, "the pre-reset window ")
    _require("stock prices must be positive and finite", s, s0, low=0.0)
    gap = spec.maturity - spec.t_reset
    strike = s0 * math.exp(-spec.rate * gap)
    option = _exchange(s, strike, spec.sigma ** 2 * gap)
    return (1.0 - spec.beta) * s + spec.beta * option


# ---------------------------------------------------------------------------
# equity option with a currency-translated strike


def fx_option_usd(spec: FxStrike, s: float, x: float, t: float = 0.0) -> float:
    """Dollar value of the call on the dollar-translated stock, strike S0*X0.

    ``s`` is the stock in pounds, ``x`` the dollar price of one pound.
    """
    _check_spec(spec, t, 0.0, spec.maturity)
    _require("stock and exchange rate must be positive and finite", s, x, low=0.0)
    tau = spec.maturity - t
    var_rate = (spec.sigma_s ** 2 + 2.0 * spec.rho * spec.sigma_s * spec.sigma_x
                + spec.sigma_x ** 2)
    return _exchange(s * x, spec.spot * spec.fx * math.exp(-spec.r_d * tau),
                     var_rate * tau)


def fx_option_gbp(spec: FxStrike, s: float, y: float, t: float = 0.0) -> float:
    """Pound value of the same claim; ``y`` is the pound price of one dollar.

    Satisfies fx_option_gbp(s, y) = y * fx_option_usd(s, 1/y) identically.
    """
    _require("exchange rate must be positive and finite", y, low=0.0)
    return y * fx_option_usd(spec, s, 1.0 / y, t)


# ---------------------------------------------------------------------------
# currency-protected savings plan


def savings_domestic(spec: Savings, x: float, i: float, t: float = 0.0) -> float:
    """Dollar value of the guarantee; ``x`` dollars per unit foreign, ``i`` the
    domestic price level.

    Terminal claim: the better of the domestically compounded deposit and the
    foreign-compounded deposit translated at maturity.
    """
    _check_spec(spec, t, 0.0, spec.maturity)
    _require("exchange rate and price level must be positive and finite", x, i,
             low=0.0)
    lead_i = i * math.exp(spec.r_d * t)
    lead_x = x * spec.fx * math.exp(spec.r_f * t)
    var_rate = (spec.sigma_x ** 2 + 2.0 * spec.rho * spec.sigma_x * spec.sigma_i
                + spec.sigma_i ** 2)
    return lead_x + _exchange(lead_i, lead_x, var_rate * (spec.maturity - t))


def savings_foreign(spec: Savings, y: float, i: float, t: float = 0.0) -> float:
    """Foreign-currency value of the same guarantee; ``y`` = 1/x.

    Satisfies savings_foreign(y, i) = y * savings_domestic(1/y, i) identically.
    """
    _require("exchange rate must be positive and finite", y, low=0.0)
    return y * savings_domestic(spec, 1.0 / y, i, t)


# ---------------------------------------------------------------------------
# convertible bonds under stochastic interest rates


def convertible_price(spec: Convertible, s: float, r_short: float,
                      t: float = 0.0) -> float:
    """Bond convertible into one share at ``conv_date``; mean-reverting rates.

    The holder receives max(stock, bond) at the conversion date, so the value
    is the bond plus an exchange option, priced with the variance of the
    stock/bond ratio integrated over the remaining life.
    """
    _check_spec(spec, t, 0.0, spec.conv_date, "the pre-conversion window ")
    _require("stock price must be positive and finite", s, low=0.0)
    _require("short rate must be finite", r_short)
    p = ratecurve.bond_price(spec.vasicek, r_short, t, spec.bond_maturity)
    var = ratecurve.integrated_variance(
        spec.vasicek, spec.sigma_s, spec.rho, t, spec.conv_date, spec.bond_maturity)
    return p + _exchange(s, p, var)


def corporate_convertible_price(spec: Corporate, v: float, r_short: float,
                                t: float = 0.0) -> float:
    """Convertible corporate debt on the whole firm value ``v``.

    Each of the n bonds converts into ``conv_rate`` new shares at maturity;
    bondholders take the better of the face amount and the diluted share of
    the firm.  ``spec.dilution`` is conv_rate / (shares + bonds * conv_rate).
    """
    _check_spec(spec, t, 0.0, spec.maturity)
    _require("firm value must be positive and finite", v, low=0.0)
    _require("short rate must be finite", r_short)
    strike = spec.face * ratecurve.bond_price(spec.vasicek, r_short, t,
                                              spec.maturity)
    var = ratecurve.integrated_variance(
        spec.vasicek, spec.sigma_v, spec.rho, t, spec.maturity, spec.maturity)
    return strike + _exchange(spec.dilution * v, strike, var)
