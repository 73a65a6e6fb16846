"""Simulation oracles for the shipped products.

Pricing is under the money-market measure of each product's quote currency.
Every sampler draws the terminal state exactly from one vector of normal
shocks per path, with no time stepping and no discretization bias: two shocks
for the lognormal products, three for the Vasicek ones, whose short rate, its
integral and the log asset are jointly Gaussian (Glasserman 2004, Monte Carlo
Methods in Financial Engineering, section 3.3).

Determinism: streams come from Philox keyed by (seed, block index) with a
fixed block size, so results are bit-reproducible for a given spec regardless
of platform threading.  Antithetic sampling averages each draw with its
mirrored partner; ``paths`` counts the averaged pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ratecurve
from .errors import PricingError
from .model import (
    Convertible,
    Corporate,
    Esop,
    FxStrike,
    Savings,
    require_valid,
)

_BLOCK_EXACT = 65536


@dataclass(frozen=True)
class McSpec:
    paths: int = 100_000
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("paths must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class McResult:
    estimate: float
    std_error: float
    paths_used: int


def _rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, block]))


def _accumulate(payoff, shape: tuple, mc: McSpec) -> McResult:
    """Mean and standard error of ``payoff`` over ``mc.paths`` normal draws
    of ``shape``, block k from the (seed, k) stream, each draw averaged with
    its mirror -z under antithetic sampling.  Block means and sums of squared
    deviations are merged by the update of Chan, Golub & LeVeque."""
    mean = 0.0
    m2 = 0.0
    for block, done in enumerate(range(0, mc.paths, _BLOCK_EXACT)):
        z = _rng(mc.seed, block).standard_normal(
            (min(_BLOCK_EXACT, mc.paths - done),) + shape)
        vals = 0.5 * (payoff(z) + payoff(-z)) if mc.antithetic else payoff(z)
        n = vals.size
        block_mean = float(vals.mean())
        vals -= block_mean
        delta = block_mean - mean
        mean += delta * n / (done + n)
        m2 += float(np.dot(vals, vals)) + delta * delta * n * done / (done + n)
    return McResult(estimate=mean, std_error=math.sqrt(m2) / mc.paths,
                    paths_used=mc.paths)


# ---------------------------------------------------------------------------
# samplers: each returns (payoff of a block of shocks, shape of one shock)


def _esop_sampler(spec: Esop):
    t0, t1 = spec.t_reset, spec.maturity
    gap = t1 - t0
    r, sig = spec.rate, spec.sigma
    drift0 = (r - 0.5 * sig * sig) * t0
    drift1 = (r - 0.5 * sig * sig) * gap
    v0 = sig * math.sqrt(t0)
    v1 = sig * math.sqrt(gap)
    disc = math.exp(-r * t1)

    def payoff(z):
        s_reset = spec.spot * np.exp(drift0 + v0 * z[:, 0])
        s_final = s_reset * np.exp(drift1 + v1 * z[:, 1])
        plan = (1.0 - spec.beta) * s_final + spec.beta * np.maximum(
            s_final - s_reset, 0.0)
        return disc * plan

    return payoff, (2,)


def _fx_sampler(spec: FxStrike):
    tau = spec.maturity
    ss, sx, rho = spec.sigma_s, spec.sigma_x, spec.rho
    strike = spec.spot * spec.fx
    drift_s = (spec.r_p - rho * ss * sx - 0.5 * ss * ss) * tau
    drift_x = (spec.r_d - spec.r_p - 0.5 * sx * sx) * tau
    vs = ss * math.sqrt(tau)
    vx = sx * math.sqrt(tau)
    rbar = math.sqrt(max(1.0 - rho * rho, 0.0))
    disc = math.exp(-spec.r_d * tau)

    def payoff(z):
        s = spec.spot * np.exp(drift_s + vs * z[:, 0])
        x = spec.fx * np.exp(drift_x + vx * (rho * z[:, 0] + rbar * z[:, 1]))
        return disc * np.maximum(s * x - strike, 0.0)

    return payoff, (2,)


def _savings_sampler(spec: Savings):
    tau = spec.maturity
    sx, si, rho = spec.sigma_x, spec.sigma_i, spec.rho
    y0 = spec.fx
    x0 = 1.0 / y0
    i0 = spec.price_level
    drift_i = -0.5 * si * si * tau
    drift_x = (spec.r_d - spec.r_f - 0.5 * sx * sx) * tau
    vi = si * math.sqrt(tau)
    vx = sx * math.sqrt(tau)
    rbar = math.sqrt(max(1.0 - rho * rho, 0.0))
    lead_i = math.exp(spec.r_d * tau)
    lead_x = y0 * math.exp(spec.r_f * tau)
    disc = math.exp(-spec.r_d * tau)

    def payoff(z):
        i_t = i0 * np.exp(drift_i + vi * z[:, 0])
        x_t = x0 * np.exp(drift_x + vx * (-rho * z[:, 0] + rbar * z[:, 1]))
        return disc * np.maximum(lead_i * i_t, lead_x * x_t)

    return payoff, (2,)


def sample_vasicek(model: ratecurve.VasicekModel, times, seed: int,
                   paths: Optional[int] = None):
    """Exact-transition short-rate samples at the requested times.

    Walks dr = theta*(mu_r - r)dt + sigma_r dW from (0, r0) using the exact
    Gaussian transition over each interval, so there is no discretization
    bias at any spacing.  Returns a 1-D array aligned with ``times``; with
    ``paths`` set, a (paths, len(times)) array of independent paths drawn
    from the same seeded stream.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty one-dimensional sequence")
    if times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be non-negative and strictly increasing")
    m = 1 if paths is None else int(paths)
    if m < 1:
        raise ValueError("paths must be positive")
    rng = _rng(seed, 0)
    mu = model.mu_r
    out = np.empty((m, times.size))
    level = np.full(m, model.r0)
    prev = 0.0
    for k, t in enumerate(times):
        dt = t - prev
        if dt > 0.0:
            decay, sd = _ou_transition(model, dt)
            level = mu + (level - mu) * decay + sd * rng.standard_normal(m)
        out[:, k] = level
        prev = t
    return out[0] if paths is None else out


def _ou_transition(model: ratecurve.VasicekModel, dt: float) -> tuple:
    """Decay factor and innovation sd of the exact OU transition over dt."""
    theta = model.theta
    return math.exp(-theta * dt), model.sigma_r * math.sqrt(
        -math.expm1(-2.0 * theta * dt) / (2.0 * theta))


def _vasicek_law(model: ratecurve.VasicekModel, sigma_a: float, rho: float,
                 horizon: float) -> tuple:
    """Mean and covariance of (r_T, integral of r, log S_T/S_0 - integral of r)
    under the pricing measure, for an asset of volatility ``sigma_a`` and
    correlation ``rho`` with the rate; T = ``horizon``, B = B(0, T) and m is
    the risk-neutral level."""
    th, sr = model.theta, model.sigma_r
    level = ratecurve.risk_neutral_level(model)
    b = ratecurve.b_factor(model, 0.0, horizon)
    b2 = -math.expm1(-2.0 * th * horizon) / (2.0 * th)
    mean = (level + (model.r0 - level) * math.exp(-th * horizon),
            level * horizon + (model.r0 - level) * b,
            -0.5 * sigma_a * sigma_a * horizon)
    cross = rho * sr * sigma_a
    var_int = sr * sr * (horizon - 2.0 * b + b2) / (th * th)
    low = np.array([
        [sr * sr * b2, 0.0, 0.0],
        [0.5 * sr * sr * b * b, var_int, 0.0],
        [cross * b, cross * (horizon - b) / th, sigma_a * sigma_a * horizon]])
    return mean, low + np.tril(low, -1).T


def _psd_root(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T = cov for a positive semidefinite cov.

    Cholesky, except that a pivot at or below 1e-12 of its diagonal entry
    (zero, or the rounding noise of a singular direction, as at sigma_r = 0
    or |rho| near 1) leaves its column at zero instead of raising.
    """
    low = np.zeros_like(cov)
    for j in range(cov.shape[0]):
        pivot = cov[j, j] - low[j, :j] @ low[j, :j]
        if pivot > 1e-12 * cov[j, j]:
            low[j, j] = math.sqrt(pivot)
            low[j + 1:, j] = (cov[j + 1:, j]
                              - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def _rate_asset_sampler(model, sigma_a, rho, spot, horizon, payoff_fn):
    """One draw of (r_T, integral of r, S_T) per path from ``_vasicek_law``.

    ``payoff_fn(asset, r_T)`` is discounted by exp(-integral of r).  The
    shocks are L z, written out for the lower-triangular L so that no BLAS
    call (and none of its threading) sits in the loop.
    """
    (m_r, m_int, m_a), cov = _vasicek_law(model, sigma_a, rho, horizon)
    (l00, _, _), (l10, l11, _), (l20, l21, l22) = _psd_root(cov)

    def payoff(z):
        z0, z1, z2 = z[:, 0], z[:, 1], z[:, 2]
        rate_int = m_int + l10 * z0 + l11 * z1
        asset = spot * np.exp(rate_int + m_a + l20 * z0 + l21 * z1 + l22 * z2)
        return np.exp(-rate_int) * payoff_fn(asset, m_r + l00 * z0)

    return payoff, (3,)


def _convertible_sampler(spec: Convertible):
    model = spec.vasicek
    a_fac = ratecurve.a_factor(model, spec.conv_date, spec.bond_maturity)
    b_fac = ratecurve.b_factor(model, spec.conv_date, spec.bond_maturity)

    def payoff_fn(stock, r_end):
        return np.maximum(stock, a_fac * np.exp(-b_fac * r_end))

    return _rate_asset_sampler(model, spec.sigma_s, spec.rho, spec.spot,
                               spec.conv_date, payoff_fn)


def _corporate_sampler(spec: Corporate):
    c = spec.dilution

    def payoff_fn(firm, r_end):
        return np.maximum(spec.face, c * firm)

    return _rate_asset_sampler(spec.vasicek, spec.sigma_v, spec.rho,
                               spec.firm_value, spec.maturity, payoff_fn)


# ---------------------------------------------------------------------------
# public entry points

_SAMPLERS = {
    Esop: _esop_sampler,
    FxStrike: _fx_sampler,
    Savings: _savings_sampler,
    Convertible: _convertible_sampler,
    Corporate: _corporate_sampler,
}


def price_mc(product, mc: McSpec) -> McResult:
    """Discounted-payoff estimate for a product at its stored initial state.

    Raises ValidationFailure on an invalid spec.
    """
    sampler = _SAMPLERS.get(type(product))
    if sampler is None:
        raise PricingError(f"no Monte Carlo sampler for {type(product).__name__}")
    require_valid(product)
    payoff, shape = sampler(product)
    return _accumulate(payoff, shape, mc)


def mc_bond_price(model: ratecurve.VasicekModel, maturity: float,
                  mc: McSpec) -> McResult:
    """Estimate E[exp(-integral of r)] from one exact draw per path.

    The integral is drawn from the joint law the rate products use, so
    convergence to the closed-form bond checks its mean and variance and the
    pricing-measure drift in one shot.
    """
    if maturity <= 0.0:
        raise ValueError("maturity must be positive")
    payoff, shape = _rate_asset_sampler(model, 0.0, 0.0, 1.0, maturity,
                                        lambda asset, r_end: 1.0)
    return _accumulate(payoff, shape, mc)
