"""Simulation oracles for the shipped products.

Pricing is under the money-market measure of each product's quote currency.
Samplers with lognormal terminal laws (plan with reset, translated strike,
savings guarantee) draw the terminal state exactly; the stochastic-rate
products walk the short rate with the exact Ornstein-Uhlenbeck transition and
integrate the discount factor by the trapezoid rule, using the *same*
trapezoid average as the asset drift so that discounted assets stay exact
martingales path by path.

Determinism: streams come from Philox keyed by (seed, block index) with fixed
block sizes, so results are bit-reproducible for a given spec regardless of
platform threading.  Antithetic sampling averages each draw with its mirrored
partner; ``paths`` counts the averaged pairs.
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
_BLOCK_PATH = 8192
_STEPS_PER_YEAR = 256  # short-rate walk resolution of the rate products


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


def _accumulate(payoff, shape: tuple, mc: McSpec, block_size: int) -> McResult:
    """Mean and standard error of ``payoff`` over ``mc.paths`` normal draws
    of ``shape``, block k from the (seed, k) stream, each draw averaged with
    its mirror -z under antithetic sampling."""
    total = 0.0
    total_sq = 0.0
    for block, done in enumerate(range(0, mc.paths, block_size)):
        z = _rng(mc.seed, block).standard_normal(
            (min(block_size, mc.paths - done),) + shape)
        vals = 0.5 * (payoff(z) + payoff(-z)) if mc.antithetic else payoff(z)
        total += float(vals.sum())
        total_sq += float(np.dot(vals, vals))
    mean = total / mc.paths
    var = max(total_sq / mc.paths - mean * mean, 0.0)
    return McResult(estimate=mean, std_error=math.sqrt(var / mc.paths),
                    paths_used=mc.paths)


# ---------------------------------------------------------------------------
# exact-terminal samplers


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


# ---------------------------------------------------------------------------
# short-rate path samplers


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


def _ou_walk(model: ratecurve.VasicekModel, z_rate, steps: int, dt: float):
    """Exact transition walk of the pricing-measure short rate.

    Returns the trapezoid integral of the rate over the walk and its final
    level, one entry per path.
    """
    mean = ratecurve.risk_neutral_level(model)
    decay, sd = _ou_transition(model, dt)
    m = z_rate.shape[0]
    path = np.empty((m, steps + 1))
    path[:, 0] = model.r0
    level = np.full(m, model.r0)
    for k in range(steps):
        level = mean + (level - mean) * decay + sd * z_rate[:, k]
        path[:, k + 1] = level
    rate_int = dt * (0.5 * path[:, 0] + path[:, 1:-1].sum(axis=1)
                     + 0.5 * path[:, -1])
    return rate_int, path[:, -1]


def _rate_asset_sampler(model, sigma_a, rho, spot, horizon, payoff_fn):
    """Joint (short rate, lognormal asset) walk to ``horizon``.

    The asset's Brownian increment is reconstructed so that its correlation
    with the rate innovation matches the exact continuous-time covariance
    over a step, and its drift uses the same trapezoid rate average as the
    discount factor.
    """
    steps = max(8, int(math.ceil(_STEPS_PER_YEAR * horizon)))
    dt = horizon / steps
    sd_r = _ou_transition(model, dt)[1]
    b_dt = -math.expm1(-model.theta * dt) / model.theta
    rho_eff = 0.0
    if sd_r > 0.0:
        rho_eff = rho * model.sigma_r * b_dt / (math.sqrt(dt) * sd_r)
    rho_eff = min(max(rho_eff, -1.0), 1.0)
    rbar = math.sqrt(max(1.0 - rho_eff * rho_eff, 0.0))
    sq_dt = math.sqrt(dt)

    def payoff(z):
        z_rate = z[:, :, 0]
        rate_int, r_end = _ou_walk(model, z_rate, steps, dt)
        w = rho_eff * z_rate + rbar * z[:, :, 1]
        log_a = (rate_int - 0.5 * sigma_a * sigma_a * horizon
                 + sigma_a * sq_dt * w.sum(axis=1))
        asset = spot * np.exp(log_a)
        return np.exp(-rate_int) * payoff_fn(asset, r_end)

    return payoff, (steps, 2)


def _convertible_sampler(spec: Convertible):
    model = spec.vasicek
    a_fac = ratecurve.a_factor(model, spec.conv_date, spec.bond_maturity)
    b_fac = ratecurve.b_factor(model, spec.conv_date, spec.bond_maturity)

    def payoff_fn(stock, r_end):
        bond = a_fac * np.exp(-b_fac * r_end)
        return np.maximum(stock, bond)

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

# product type -> (sampler returning (payoff of the shocks, shock shape),
# paths per Philox block)
_SAMPLERS = {
    Esop: (_esop_sampler, _BLOCK_EXACT),
    FxStrike: (_fx_sampler, _BLOCK_EXACT),
    Savings: (_savings_sampler, _BLOCK_EXACT),
    Convertible: (_convertible_sampler, _BLOCK_PATH),
    Corporate: (_corporate_sampler, _BLOCK_PATH),
}


def price_mc(product, mc: McSpec) -> McResult:
    """Discounted-payoff estimate for a product at its stored initial state.

    Raises ValidationFailure on an invalid spec.
    """
    entry = _SAMPLERS.get(type(product))
    if entry is None:
        raise PricingError(f"no Monte Carlo sampler for {type(product).__name__}")
    require_valid(product)
    sampler, block_size = entry
    payoff, shape = sampler(product)
    return _accumulate(payoff, shape, mc, block_size)


def mc_bond_price(model: ratecurve.VasicekModel, maturity: float,
                  mc: McSpec) -> McResult:
    """Estimate E[exp(-integral of r)] for the walked short rate.

    Convergence to the closed-form discount bond checks both the exact
    transition sampling and the pricing-measure drift in one shot.
    """
    if maturity <= 0.0:
        raise ValueError("maturity must be positive")
    steps = max(8, int(math.ceil(_STEPS_PER_YEAR * maturity)))
    dt = maturity / steps

    def payoff(z):
        return np.exp(-_ou_walk(model, z[:, :, 0], steps, dt)[0])

    return _accumulate(payoff, (steps, 1), mc, _BLOCK_PATH)
