"""Vasicek short-rate curve: affine bond prices, bond volatility, variance integrals.

The short rate follows dr = theta*(mu_r - r) dt + sigma_r dW with market price
of risk lambda.  Zero-coupon bonds are exponential-affine,

    p(r, t; T) = A(t, T) * exp(-B(t, T) * r),

and the bond return volatility is sigma_r * B(t, T).  The integrated-variance
helper accumulates the combined asset/bond variance used by the convertible
closed forms.  ``affine_integrals`` is the one source of the integrals of B
and B^2 that the bond price, that variance and the simulated rate law read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import TimeDomainError


@dataclass(frozen=True)
class VasicekModel:
    theta: float    # mean-reversion speed, > 0
    mu_r: float     # long-run level
    sigma_r: float  # absolute rate volatility, >= 0
    lam: float = 0.0  # market price of risk (JSON key: model.VASICEK_FIELDS)
    r0: float = 0.0   # current short rate


# Below this theta * tau ``affine_integrals`` takes the integrals of B and
# B^2 from their series.  Just above it the closed forms cancel to at most
# 4.2e-12 relative for int B and 6.2e-8 for int B^2 (1,500 draws against
# 50-digit arithmetic), and every theta * tau the default products reach,
# down to a quarter step of a 200-step solve, lies above it.
_SERIES_BELOW = 1e-4
# int_0^tau B = tau^2 sum_k (-x)^k / (k + 2)!  = tau^2 (x + expm1(-x)) / x^2
# int_0^tau B^2 = tau^3 sum_k (-x)^k (2^(k+2) - 2) / (k + 3)!,  x = theta tau;
# four terms leave under 1e-17 relative below _SERIES_BELOW
_INT_B = tuple(1.0 / math.factorial(k + 2) for k in range(4))
_INT_B2 = tuple((2.0 ** (k + 2) - 2.0) / math.factorial(k + 3) for k in range(4))


def _series(x: float, weights) -> float:
    """sum of weights[k] (-x)^k, by Horner's rule."""
    total = 0.0
    for w in reversed(weights):
        total = w - x * total
    return total


def _b(theta: float, tau: float) -> float:
    """(1 - exp(-theta tau)) / theta.  expm1 keeps the theta tau -> 0 limit
    tau down to the smallest normal theta tau; below it, where expm1 returns
    the subnormal product itself and the division loses its digits, the
    result is tau, the exact limit in double precision."""
    x = theta * tau
    return tau if x < sys.float_info.min else -math.expm1(-x) / theta


def b_factor(model: VasicekModel, t: float, maturity: float) -> float:
    """B(t, T) = (1 - exp(-theta (T - t))) / theta (``_b``)."""
    dt = maturity - t
    if not dt >= 0.0:
        raise ValueError("maturity must not precede t")
    return _b(model.theta, dt)


def affine_integrals(model: VasicekModel, t: float, maturity: float) -> tuple:
    """(B(t, T), int B, int B^2), the integrals of B(s) and B(s)^2 over s in
    [0, tau], tau = T - t: (tau - B) / theta and (tau - B - theta B^2 / 2) /
    theta^2, or their series below theta tau = _SERIES_BELOW, where those
    lose digits as 1 / theta^2."""
    th = model.theta
    b = b_factor(model, t, maturity)
    tau = maturity - t
    x = th * tau
    if x < _SERIES_BELOW:
        return b, tau * tau * _series(x, _INT_B), tau ** 3 * _series(x, _INT_B2)
    return b, (tau - b) / th, (tau - b - 0.5 * th * b * b) / (th * th)


def log_affine(model: VasicekModel, t: float, maturity: float) -> tuple:
    """(ln A(t, T), B(t, T)) of the affine bond price A * exp(-B r), with
    ln A = -(theta mu_r - lam sigma_r) int B + (sigma_r^2 / 2) int B^2."""
    sr = model.sigma_r
    b, int_b, int_b2 = affine_integrals(model, t, maturity)
    return (-(model.theta * model.mu_r - model.lam * sr) * int_b
            + 0.5 * sr * sr * int_b2), b


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
    ln_a, b = log_affine(model, t, maturity)
    if b <= 0.0:
        raise TimeDomainError("bond price is uninformative at t == maturity")
    return -(math.log(p) - ln_a) / b


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
    with Sigma_p(u, T) = sigma_r * B(u, T).  With s = t_bond - u over
    [tau0, tau0 + delta], B(tau0 + v) = B(tau0) + e^{-theta tau0} B(v), so the
    integrals of B and B^2 follow from those over v in [0, delta]
    (``affine_integrals`` on [t, t_exercise]).
    """
    if t_exercise < t:
        raise ValueError("t_exercise must not precede t")
    if t_bond < t_exercise:
        raise ValueError("bond maturity must not precede the exercise date")
    sr = model.sigma_r
    delta = t_exercise - t
    b0 = b_factor(model, t_exercise, t_bond)
    e0 = math.exp(-model.theta * (t_bond - t_exercise))
    _, int_v, int_v2 = affine_integrals(model, t, t_exercise)
    int_b = b0 * delta + e0 * int_v
    int_b2 = b0 * b0 * delta + 2.0 * b0 * e0 * int_v + e0 * e0 * int_v2
    return sigma_a * sigma_a * delta + 2.0 * rho * sigma_a * sr * int_b + sr * sr * int_b2
