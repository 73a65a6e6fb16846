"""Simulation oracles for the shipped products.

Pricing is under the money-market measure of each product's quote currency,
with the law derived from the product's canonical formulation in
:mod:`numerkit.products`.  The terminal state is drawn exactly from one
vector of normal shocks per path, with no time stepping and no
discretization bias: two shocks for a constant short rate, three under
Vasicek, whose short rate, its integral and the log asset are jointly
Gaussian (Glasserman 2004, Monte Carlo Methods in Financial Engineering,
section 3.3).

Determinism: streams come from Philox keyed by (seed, block index) with a
fixed block size, so results are bit-reproducible for a given spec regardless
of platform threading.  Antithetic sampling averages each draw with its
mirrored partner; ``paths`` counts the averaged pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ratecurve
from .model import require_integers, require_valid
from .pde import integral
from .products import Formulation, VasicekBond, formulations

_BLOCK_EXACT = 65536


@dataclass(frozen=True)
class McSpec:
    paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        require_integers(self)
        if self.paths < 1:
            raise ValueError("paths must be positive")
        if not 0 <= self.seed < 2 ** 64:
            # the first word of the Philox key
            raise ValueError("seed must be in [0, 2**64)")


@dataclass(frozen=True)
class McResult:
    estimate: float
    std_error: float


def _rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


def _accumulate(payoff, shape: tuple, mc: McSpec) -> McResult:
    """Mean and standard error of ``payoff`` over ``mc.paths`` normal draws
    of ``shape``, block k from the (seed, k) stream, each draw averaged with
    its mirror -z (negated in place, so ``payoff`` must return a fresh
    array).  Block means and sums of squared deviations are merged by the
    update of Chan, Golub & LeVeque."""
    mean = 0.0
    m2 = 0.0
    for block, done in enumerate(range(0, mc.paths, _BLOCK_EXACT)):
        z = _rng(mc.seed, block).standard_normal(
            (min(_BLOCK_EXACT, mc.paths - done),) + shape)
        vals = payoff(z)
        vals += payoff(np.negative(z, out=z))
        vals *= 0.5
        n = vals.size
        block_mean = float(vals.mean())
        vals -= block_mean
        delta = block_mean - mean
        mean += delta * n / (done + n)
        m2 += float(np.dot(vals, vals)) + delta * delta * n * done / (done + n)
    return McResult(estimate=mean, std_error=math.sqrt(m2) / mc.paths)


def _vasicek_law(model: ratecurve.VasicekModel, sigma_a: float, rho: float,
                 horizon: float) -> tuple:
    """Mean and covariance of (r_T, integral of r, log S_T/S_0 - integral of r)
    under the pricing measure, for an asset of volatility ``sigma_a`` and
    correlation ``rho`` with the rate; T = ``horizon``.

    With B, int B and int B^2 over [0, T] from ``ratecurve.affine_integrals``
    and k = theta mu_r - lam sigma_r, the means are r0 e^{-theta T} + k B and
    r0 B + k int B, and Var r_T = sigma_r^2 (B - theta B^2 / 2), which is
    sigma_r^2 B(T) at twice the reversion speed."""
    th, sr, r0 = model.theta, model.sigma_r, model.r0
    b, int_b, int_b2 = ratecurve.affine_integrals(model, 0.0, horizon)
    k = th * model.mu_r - model.lam * sr
    cross = rho * sr * sigma_a
    low = np.array([
        [sr * sr * (b - 0.5 * th * b * b), 0.0, 0.0],
        [0.5 * sr * sr * b * b, sr * sr * int_b2, 0.0],
        [cross * b, cross * int_b, sigma_a * sigma_a * horizon]])
    return ((r0 * math.exp(-th * horizon) + k * b, r0 * b + k * int_b,
             -0.5 * sigma_a * sigma_a * horizon), low + np.tril(low, -1).T)


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


def _rate_asset_sampler(model, sigma_a, rho, horizon, payoff_fn):
    """One draw of (r_T, integral of r, ln S_T/S_0) per path from
    ``_vasicek_law``.

    ``payoff_fn(log_growth, r_T)`` is discounted by exp(-integral of r); it
    is handed the asset's exponent, so a payoff that ignores the asset never
    exponentiates it (over a long horizon that overflows).  The shocks are
    L z, written out for the lower-triangular L so that no BLAS call (and
    none of its threading) sits in the loop.
    """
    (m_r, m_int, m_a), cov = _vasicek_law(model, sigma_a, rho, horizon)
    (l00, _, _), (l10, l11, _), (l20, l21, l22) = _psd_root(cov)

    def payoff(z):
        z0, z1, z2 = z[:, 0], z[:, 1], z[:, 2]
        rate_int = m_int + l10 * z0 + l11 * z1
        return np.exp(-rate_int) * payoff_fn(
            rate_int + m_a + l20 * z0 + l21 * z1 + l22 * z2, m_r + l00 * z0)

    return payoff, (3,)


def _lognormal_sampler(f: Formulation):
    """One draw of (X_T, Y_T) per path from their exact joint lognormal law
    at a constant short rate; the payoff is discounted at that rate.

    The first shock drives Y alone, the second the rest of X.  Each block
    copies its shocks into contiguous rows once and then works in place on
    two arrays instead of a chain of temporaries.
    """
    sx, sy, c, T, bps = f.sigma_x, f.sigma_y, f.corr, f.maturity, f.breakpoints
    var_x = integral(lambda t: sx(t) * sx(t), T, bps)
    var_y = integral(lambda t: sy(t) * sy(t), T, bps)
    cov = integral(lambda t: c * sx(t) * sy(t), T, bps)
    (ly, _), (lxy, lx) = _psd_root(np.array([[var_y, cov], [cov, var_x]]))
    x0, y0 = f.anchor
    mx = (f.rate - f.q_x) * T - 0.5 * var_x
    my = (f.rate - f.q_y) * T - 0.5 * var_y
    disc = math.exp(-f.rate * T)
    terminal = f.terminal

    def payoff(z):
        z0, z1 = np.ascontiguousarray(z.T)
        x = np.multiply(z1, lx)
        x += lxy * z0
        x += mx
        np.exp(x, out=x)
        x *= x0
        y = np.multiply(z0, ly)
        y += my
        np.exp(y, out=y)
        y *= y0
        out = terminal(x, y)
        out *= disc
        return out

    return payoff, (2,)


def _sampler(f: Formulation):
    """The simulated law of a formulation: exact lognormal at a constant rate;
    under Vasicek the joint rate draw, with the bond Y = A e^{-B r_T}."""
    if not isinstance(f.rate, VasicekBond):
        return _lognormal_sampler(f)
    model, T = f.rate.model, f.maturity
    ln_a, b_fac = ratecurve.log_affine(model, T, f.rate.maturity)
    terminal = f.terminal
    spot = f.anchor[0] * math.exp(-f.q_x * T)
    return _rate_asset_sampler(
        model, f.sigma_x(0.0), -f.corr, T,
        lambda growth, r_end: terminal(spot * np.exp(growth),
                                       np.exp(ln_a - b_fac * r_end)))


# ---------------------------------------------------------------------------
# public entry points


def price_mc(product, mc: McSpec) -> McResult:
    """Discounted-payoff estimate for a product at its stored initial state,
    simulated from its canonical formulation.

    Raises ValidationFailure on an invalid spec.
    """
    payoff, shape = _sampler(formulations(product)[0])
    return _accumulate(payoff, shape, mc)


def mc_bond_price(model: ratecurve.VasicekModel, maturity: float,
                  mc: McSpec) -> McResult:
    """Estimate E[exp(-integral of r)] from one exact draw per path.

    The integral is drawn from the joint law the rate products use, so
    convergence to the closed-form bond checks its mean and variance and the
    pricing-measure drift in one shot.

    Raises ValueError unless ``maturity`` is positive and finite, and
    ValidationFailure on an invalid ``model``.
    """
    if not (maturity > 0.0 and math.isfinite(maturity)):
        raise ValueError("maturity must be positive and finite")
    require_valid(model)
    payoff, shape = _rate_asset_sampler(model, 0.0, 0.0, maturity,
                                        lambda growth, r_end: 1.0)
    return _accumulate(payoff, shape, mc)
