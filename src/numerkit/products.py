"""One two-asset description per formulation of each shipped product.

Every claim is written once, as two assets and a short rate,

    dX/X = (r - q_x) dt + sigma_x(t) dW_x,
    dY/Y = (r - q_y) dt + sigma_y(t) dW_y,     dW_x dW_y = c dt,

where r is either a constant or the Vasicek short rate read off Y when Y is
that model's zero-coupon bond, plus a payoff of (X_T, Y_T) at the maturity.
The pricing routes are derived from the description alone: the two-factor
equation (:attr:`Formulation.pde2`), its quotient by the numeraire Y
(``pde.derive_reduced``), which the reduced PDE and the quadrature price,
and, in :mod:`numerkit.montecarlo`, the simulated law.  No closed form is
read here, so the analytic route stays an independent check on the others.

A degree-one claim may be quoted in any of its assets, and each here is in
Y: the ratio X/Y drifts at q_y - q_x and the claim discounts at q_y, so the
short rate drops out of the reduced problem (Geman, El Karoui & Rochet 1995,
J. Appl. Prob. 32(2)).  The two-factor equation names
r once and the yields as constants, so it drops out by construction: the
reduction never reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import ratecurve
from .errors import PricingError
from .model import Convertible, Corporate, Esop, FxStrike, Savings, require_valid
from .pde import Pde2Spec


@dataclass(frozen=True)
class VasicekBond:
    """The short rate of ``model`` read off the price Y of its zero-coupon
    bond maturing at ``maturity``: r(t, Y) = (ln A(t, T) - ln Y) / B(t, T),
    with ln A and B from one ``ratecurve.log_affine`` call."""

    model: ratecurve.VasicekModel
    maturity: float

    def __call__(self, t, X, Y):
        ln_a, b = ratecurve.log_affine(self.model, t, self.maturity)
        return (ln_a - np.log(Y)) / b


@dataclass(frozen=True)
class Formulation:
    """A claim on two assets X and Y, in one currency and one measure.

    ``anchor`` is today's (X, Y).  Under a ``VasicekBond`` rate, Y is that
    bond (so q_y = 0) and sigma_x is constant.  ``terminal(x, y)`` broadcasts
    over arrays.  ``numeraire_axis`` is 1, the claim quoted in Y, when the
    payoff is homogeneous of degree one, else None; ``kink`` is where the
    payoff of the ratio X/Y (at Y = 1) kinks, ignored when not positive;
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

    @property
    def pde2(self) -> Pde2Spec:
        """The two-factor pricing equation: diffusions sigma_x^2, c sigma_x
        sigma_y and sigma_y^2, the formulation's short rate and its yields."""
        sx, sy, c = self.sigma_x, self.sigma_y, self.corr

        def diffusion(t):
            vx, vy = sx(t), sy(t)
            return vx ** 2, c * vx * vy, vy ** 2

        rate = self.rate if callable(self.rate) else lambda t, X, Y: self.rate
        return Pde2Spec(diffusion=diffusion, rate=rate, yields=(self.q_x, self.q_y),
                        terminal=self.terminal, maturity=self.maturity,
                        anchor=self.anchor, breakpoints=self.breakpoints)


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
    # X dollars per foreign unit, Y the domestic price level (the numeraire)
    return (Formulation(
        "savings", anchor=(1.0 / spec.fx, spec.price_level),
        sigma_x=_constant(spec.sigma_x), sigma_y=_constant(spec.sigma_i),
        corr=-spec.rho, q_x=spec.r_f, q_y=spec.r_d, rate=spec.r_d,
        terminal=lambda x, y: np.maximum(lead_i * y, lead_x * x),
        maturity=spec.maturity, kink=lead_i / lead_x),)


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
# the numeraire as the second asset


def numeraire_on_y(f: Formulation) -> Formulation:
    """The claim itself, whose numeraire is its second asset, the one
    ``pde.derive_reduced`` divides out; PricingError when the claim has no
    numeraire (its payoff is not homogeneous of degree one)."""
    if f.numeraire_axis != 1:
        raise PricingError(f"{f.label} has no numeraire to quotient by")
    return f
