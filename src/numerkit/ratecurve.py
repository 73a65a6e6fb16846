"""Vasicek short-rate curve: affine bond prices, bond volatility, variance integrals.

The short rate follows dr = theta*(mu_r - r) dt + sigma_r dW with market price
of risk lambda.  Zero-coupon bonds are exponential-affine,

    p(r, t; T) = A(t, T) * exp(-B(t, T) * r),

and the bond return volatility is sigma_r * B(t, T).  The integrated-variance
helper accumulates the combined asset/bond variance used by the convertible
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TimeDomainError


@dataclass(frozen=True)
class VasicekModel:
    theta: float    # mean-reversion speed, > 0
    mu_r: float     # long-run level
    sigma_r: float  # absolute rate volatility, >= 0
    lam: float = 0.0  # market price of risk (JSON key "lambda")
    r0: float = 0.0   # current short rate


def b_factor(model: VasicekModel, t: float, maturity: float) -> float:
    """B(t, T) = (1 - exp(-theta (T - t))) / theta.

    expm1 keeps the theta*(T-t) -> 0 limit exact (-> T - t) without a series
    branch.
    """
    dt = maturity - t
    if dt < 0.0:
        raise ValueError("maturity must not precede t")
    return -math.expm1(-model.theta * dt) / model.theta


def log_affine(model: VasicekModel, t: float, maturity: float) -> tuple:
    """(ln A(t, T), B(t, T)): the exponent and the rate loading of the
    affine bond price A * exp(-B r), with B computed once."""
    th, sr = model.theta, model.sigma_r
    b = b_factor(model, t, maturity)
    mean_adj = model.mu_r - model.lam * sr / th - 0.5 * sr * sr / (th * th)
    return (b - (maturity - t)) * mean_adj - sr * sr * b * b / (4.0 * th), b


def a_factor(model: VasicekModel, t: float, maturity: float) -> float:
    """A(t, T) in the affine bond price A * exp(-B r)."""
    return math.exp(log_affine(model, t, maturity)[0])


def bond_price(model: VasicekModel, r: float, t: float, maturity: float) -> float:
    """Zero-coupon price p(r, t; T) = A(t,T) exp(-B(t,T) r)."""
    ln_a, b = log_affine(model, t, maturity)
    return math.exp(ln_a) * math.exp(-b * r)


def short_rate_from_bond(model: VasicekModel, p: float, t: float, maturity: float) -> float:
    """Invert the affine bond price for the short rate.

    r = -(ln p - ln A) / B.  Requires t < maturity (B > 0) and p > 0.
    """
    if not p > 0.0:
        raise ValueError("bond price must be positive")
    b = b_factor(model, t, maturity)
    if b <= 0.0:
        raise TimeDomainError("bond price is uninformative at t == maturity")
    return -(math.log(p) - math.log(a_factor(model, t, maturity))) / b


def sigma_p(model: VasicekModel, t: float, maturity: float) -> float:
    """Bond return volatility sigma_r * B(t, T)."""
    return model.sigma_r * b_factor(model, t, maturity)


def risk_neutral_level(model: VasicekModel) -> float:
    """Long-run short-rate level under the pricing measure.

    The market price of risk shifts the reversion target by lam * sigma_r /
    theta; simulations must revert to this level for simulated discount bonds
    to match the closed form.
    """
    return model.mu_r - model.lam * model.sigma_r / model.theta


def integrated_variance(
    model: VasicekModel,
    sigma_a: float,
    rho: float,
    t: float,
    t_exercise: float,
    t_bond: float,
) -> float:
    """Integral over [t, t_exercise] of the asset/bond combined variance.

    integrand(u) = sigma_a^2 + 2 rho sigma_a Sigma_p(u, t_bond) + Sigma_p(u, t_bond)^2
    with Sigma_p(u, T) = sigma_r * B(u, T).  Closed form via the exponential
    integrals of B and B^2; exact for all theta > 0.
    """
    if t_exercise < t:
        raise ValueError("t_exercise must not precede t")
    if t_bond < t_exercise:
        raise ValueError("bond maturity must not precede the exercise date")
    th, sr = model.theta, model.sigma_r
    delta = t_exercise - t
    if delta == 0.0:
        return 0.0
    # s = t_bond - u runs over [tau0, tau1]
    tau0 = t_bond - t_exercise
    tau1 = t_bond - t
    # E1 = integral of theta * e^{-theta s} ds / theta = (e^{-theta tau0} - e^{-theta tau1}) / theta
    e1 = -math.exp(-th * tau0) * math.expm1(-th * (tau1 - tau0)) / th
    e2 = -math.exp(-2.0 * th * tau0) * math.expm1(-2.0 * th * (tau1 - tau0)) / (2.0 * th)
    int_b = (delta - e1) / th
    int_b2 = (delta - 2.0 * e1 + e2) / (th * th)
    return sigma_a * sigma_a * delta + 2.0 * rho * sigma_a * sr * int_b + sr * sr * int_b2
