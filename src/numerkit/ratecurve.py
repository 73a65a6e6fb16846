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


# Below this theta * tau the integrals of B and B^2 take their series.  At
# or above it the closed forms cancel to at most about 1e-9 relative (ln A,
# and the rate part of the variance), and every theta * tau the default
# products reach, down to a quarter step of a 200-step solve, lies above it.
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
    affine bond price A * exp(-B r), with B computed once.

    ln A = -(theta mu_r - lam sigma_r) int B + (sigma_r^2 / 2) int B^2, the
    integrals over [0, T - t].  Below theta (T - t) = _SERIES_BELOW they are
    taken from their series: the closed form divides by theta^2 and loses
    digits as 1/theta^2 when theta -> 0.
    """
    th, sr = model.theta, model.sigma_r
    b = b_factor(model, t, maturity)
    tau = maturity - t
    x = th * tau
    if x < _SERIES_BELOW:
        return (-(th * model.mu_r - model.lam * sr) * tau * tau * _series(x, _INT_B)
                + 0.5 * sr * sr * tau ** 3 * _series(x, _INT_B2)), b
    mean_adj = model.mu_r - model.lam * sr / th - 0.5 * sr * sr / (th * th)
    return (b - tau) * mean_adj - sr * sr * b * b / (4.0 * th), b


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
    integrals of B and B^2, or their series when theta (t_bond - t) is below
    _SERIES_BELOW, where the closed form cancels.
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
    if th * tau1 < _SERIES_BELOW:
        # B(tau0 + v) = B(tau0) + e^{-theta tau0} B(v), v in [0, delta]
        x0, y = th * tau0, th * delta
        b0 = tau0 * (1.0 - x0 * _series(x0, _INT_B))
        e0 = math.exp(-x0)
        int_v = delta * delta * _series(y, _INT_B)
        int_b = b0 * delta + e0 * int_v
        int_b2 = (b0 * b0 * delta + 2.0 * b0 * e0 * int_v
                  + e0 * e0 * delta ** 3 * _series(y, _INT_B2))
    else:
        # E1 = integral of theta * e^{-theta s} ds / theta = (e^{-theta tau0} - e^{-theta tau1}) / theta
        e1 = -math.exp(-th * tau0) * math.expm1(-th * (tau1 - tau0)) / th
        e2 = -math.exp(-2.0 * th * tau0) * math.expm1(-2.0 * th * (tau1 - tau0)) / (2.0 * th)
        int_b = (delta - e1) / th
        int_b2 = (delta - 2.0 * e1 + e2) / (th * th)
    return sigma_a * sigma_a * delta + 2.0 * rho * sigma_a * sr * int_b + sr * sr * int_b2
