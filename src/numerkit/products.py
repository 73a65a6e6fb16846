"""One two-asset description per formulation of each shipped product.

Every claim is written once, as two assets and a short rate,

    dX/X = (r - q_x) dt + sigma_x(t) dW_x,
    dY/Y = (r - q_y) dt + sigma_y(t) dW_y,     dW_x dW_y = c dt,

where r is either a constant or the Vasicek short rate read off Y when Y is
that model's zero-coupon bond, plus a payoff of (X_T, Y_T) at the maturity.
The pricing routes are derived from the description alone: the two-factor
equation (:func:`pde2_spec`), the one-ratio quadrature problem
(:func:`quadrature_problem`) and, in :mod:`numerkit.montecarlo`, the simulated
law.  Nothing here reads a closed form, so the analytic route stays an
independent check on the other four.

Quoted in the numeraire Y, the ratio X/Y drifts at q_y - q_x and the claim
discounts at q_y: the short rate drops out of the reduced problem (Geman, El
Karoui & Rochet 1995, J. Appl. Prob. 32(2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np
from scipy.integrate import quad

from . import ratecurve
from .errors import PricingError
from .model import Convertible, Corporate, Esop, FxStrike, Savings, require_valid
from .pde import Pde2Spec


@dataclass(frozen=True)
class VasicekBond:
    """The short rate of ``model`` read off the price Y of its zero-coupon
    bond maturing at ``maturity``: r(t, Y) = (ln A(t, T) - ln Y) / B(t, T).

    One ``ratecurve.log_affine`` call gives ln A and B, and a scalar Y takes
    ``math.log``, so a call on floats (each step of the reduced solve makes
    several) runs no numpy; an array Y broadcasts through ``np.log``.
    """

    model: ratecurve.VasicekModel
    maturity: float

    def __call__(self, t, X, Y):
        ln_a, b = ratecurve.log_affine(self.model, t, self.maturity)
        return (ln_a - (np.log(Y) if isinstance(Y, np.ndarray) else math.log(Y))) / b


@dataclass(frozen=True)
class Formulation:
    """A claim on two assets X and Y, in one currency and one measure.

    ``anchor`` is today's (X, Y).  Under a ``VasicekBond`` rate, Y is that
    bond (so q_y = 0) and sigma_x is constant.  ``terminal(x, y)`` broadcasts
    over arrays.  ``numeraire_axis`` is the asset the claim is quoted in when
    the payoff is homogeneous of degree one, else None; ``kink`` is where the
    payoff of the ratio (numeraire at one) kinks, ignored when not positive;
    ``to_canonical`` converts a value into the product's quote currency.
    """

    label: str
    anchor: tuple
    sigma_x: Callable[[float], float]
    sigma_y: Callable[[float], float]
    corr: float
    q_x: float
    q_y: float
    rate: Union[float, VasicekBond]
    terminal: Callable
    maturity: float
    breakpoints: tuple = ()
    numeraire_axis: Optional[int] = 1
    kink: float = 0.0
    to_canonical: float = 1.0


def _constant(value: float) -> Callable[[float], float]:
    return lambda t: value


def _esop(spec: Esop) -> tuple:
    sig, t0, beta = spec.sigma, spec.t_reset, spec.beta
    strike_factor = math.exp(-spec.rate * (spec.maturity - t0))

    def terminal(x, y):
        return (1.0 - beta) * x + beta * np.maximum(x - strike_factor * y, 0.0)

    # Y is the stock until the reset and the cash its price fixes afterwards
    return (Formulation(
        "esop", anchor=(spec.spot, spec.spot), sigma_x=_constant(sig),
        sigma_y=lambda t: sig if t < t0 else 0.0, corr=1.0, q_x=0.0, q_y=0.0,
        rate=spec.rate, terminal=terminal, maturity=spec.maturity,
        breakpoints=(t0,), kink=strike_factor),)


def _fx(spec: FxStrike) -> tuple:
    ss, sx, rho = spec.sigma_s, spec.sigma_x, spec.rho
    rd, rp = spec.r_d, spec.r_p
    strike = spec.spot * spec.fx
    # dollars: X the pound stock (quanto drift rp - rho ss sx), Y dollars per
    # pound; the payoff max(X Y - K, 0) is degree two and does not quotient
    usd = Formulation(
        "fx_usd", anchor=(spec.spot, spec.fx), sigma_x=_constant(ss),
        sigma_y=_constant(sx), corr=rho, q_x=rd - rp + rho * ss * sx, q_y=rp,
        rate=rd, terminal=lambda x, y: np.maximum(x * y - strike, 0.0),
        maturity=spec.maturity, numeraire_axis=None)
    # pounds: X the stock, Y pounds per dollar
    gbp = Formulation(
        "fx_gbp", anchor=(spec.spot, 1.0 / spec.fx), sigma_x=_constant(ss),
        sigma_y=_constant(sx), corr=-rho, q_x=0.0, q_y=rd, rate=rp,
        terminal=lambda x, y: np.maximum(x - strike * y, 0.0),
        maturity=spec.maturity, kink=strike, to_canonical=spec.fx)
    return (usd, gbp)


def _savings(spec: Savings) -> tuple:
    lead_i = math.exp(spec.r_d * spec.maturity)
    lead_x = spec.fx * math.exp(spec.r_f * spec.maturity)
    # X dollars per foreign unit (the numeraire), Y the domestic price level
    return (Formulation(
        "savings", anchor=(1.0 / spec.fx, spec.price_level),
        sigma_x=_constant(spec.sigma_x), sigma_y=_constant(spec.sigma_i),
        corr=-spec.rho, q_x=spec.r_f, q_y=spec.r_d, rate=spec.r_d,
        terminal=lambda x, y: np.maximum(lead_i * y, lead_x * x),
        maturity=spec.maturity, numeraire_axis=0, kink=lead_x / lead_i),)


def _bond_numeraire(label, spec, sigma, spot, t_ex, t_bond, terminal,
                    kink) -> tuple:
    """A claim on (asset, the Vasicek zero-coupon bond maturing at t_bond)."""
    vas = spec.vasicek
    bond = ratecurve.bond_price(vas, vas.r0, 0.0, t_bond)
    if not 0.0 < bond < math.inf:
        # the numeraire quotient and the grid anchor divide by it
        raise ValueError("bond price must be positive and finite")
    return (Formulation(
        label, anchor=(spot, bond),
        sigma_x=_constant(sigma),
        sigma_y=lambda t: ratecurve.sigma_p(vas, t, t_bond), corr=-spec.rho,
        q_x=0.0, q_y=0.0, rate=VasicekBond(vas, t_bond), terminal=terminal,
        maturity=t_ex, kink=kink),)


def _convertible(spec: Convertible) -> tuple:
    return _bond_numeraire(
        "convertible", spec, spec.sigma_s, spec.spot, spec.conv_date,
        spec.bond_maturity, lambda x, y: np.maximum(x, y), 1.0)


def _corporate(spec: Corporate) -> tuple:
    c, face = spec.dilution, spec.face
    return _bond_numeraire(
        "corporate", spec, spec.sigma_v, spec.firm_value, spec.maturity,
        spec.maturity, lambda x, y: np.maximum(face * y, c * x), face / c)


_DESCRIBE = {
    Esop: _esop,
    FxStrike: _fx,
    Savings: _savings,
    Convertible: _convertible,
    Corporate: _corporate,
}


def formulations(product) -> tuple:
    """The product's formulations, canonical first (FxStrike: usd, gbp).

    Raises PricingError on an unknown type and ValidationFailure on an
    invalid spec, so no route prices one.
    """
    describe = _DESCRIBE.get(type(product))
    if describe is None:
        raise PricingError(f"no formulation for {type(product).__name__}")
    require_valid(product)
    return describe(product)


# ---------------------------------------------------------------------------
# derived problems


def pde2_spec(f: Formulation) -> Pde2Spec:
    """The two-factor pricing equation: diffusions sigma_x^2, c sigma_x
    sigma_y and sigma_y^2, drifts r - q, discount r, with r read once per
    evaluation."""
    sx, sy, c, qx, qy, rate = f.sigma_x, f.sigma_y, f.corr, f.q_x, f.q_y, f.rate

    def diffusion(t):
        vx, vy = sx(t), sy(t)
        return vx ** 2, c * vx * vy, vy ** 2

    def rates(t, X, Y):
        r = rate(t, X, Y) if isinstance(rate, VasicekBond) else rate
        return r - qx, r - qy, r

    return Pde2Spec(diffusion=diffusion, rates=rates, terminal=f.terminal,
                    maturity=f.maturity, anchor=f.anchor,
                    breakpoints=f.breakpoints)


def integral(f: Formulation, fn: Callable[[float], float]) -> float:
    """Integral of fn over [0, maturity], adaptive per breakpoint segment.
    Raises PricingError at the first value of fn that is not finite."""
    def checked(t):
        value = fn(t)
        if not math.isfinite(value):
            raise PricingError(f"integrand is not finite at t = {t}: {value}")
        return value

    cuts = sorted({0.0, f.maturity,
                   *(b for b in f.breakpoints if 0.0 < b < f.maturity)})
    return sum(quad(checked, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(cuts[:-1], cuts[1:]))


def numeraire_on_y(f: Formulation) -> Formulation:
    """The same claim with its numeraire as the second asset, the one
    ``pde.derive_reduced`` divides out; PricingError when the claim has no
    numeraire (its payoff is not homogeneous of degree one)."""
    if f.numeraire_axis == 1:
        return f
    if f.numeraire_axis != 0:
        raise PricingError(f"{f.label} has no numeraire to quotient by")
    terminal = f.terminal
    return replace(f, anchor=f.anchor[::-1], sigma_x=f.sigma_y,
                   sigma_y=f.sigma_x, q_x=f.q_y, q_y=f.q_x,
                   terminal=lambda x, y: terminal(y, x), numeraire_axis=1)


def quadrature_problem(f: Formulation) -> tuple:
    """(variance, ratio, payoff, kinks, multiplier): the claim is worth
    multiplier * quadrature_price(variance, ratio, payoff, kinks) in the
    product's quote currency.

    The ratio Z = X/Y of the numeraire formulation is lognormal; ln Z has the
    integral of sigma_x^2 - 2 c sigma_x sigma_y + sigma_y^2 as its variance,
    and the payoff, which takes an array of ratios, is the claim's with Y at
    one.  Z's drift q_y - q_x moves into the starting ratio and its discount
    q_y into the multiplier.
    """
    g = numeraire_on_y(f)
    sx, sy, c, T = g.sigma_x, g.sigma_y, g.corr, g.maturity
    var = integral(g, lambda t: sx(t) * sx(t) - 2.0 * c * sx(t) * sy(t)
                   + sy(t) * sy(t))
    x0, y0 = g.anchor
    return (var, x0 / y0 * math.exp((g.q_y - g.q_x) * T),
            lambda z: g.terminal(z, 1.0), (g.kink,),
            g.to_canonical * y0 * math.exp(-g.q_y * T))
