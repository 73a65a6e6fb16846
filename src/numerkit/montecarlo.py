"""Simulation oracles for the shipped products.

Pricing is under the money-market measure of each product's quote currency,
with the law derived from the product's canonical formulation in
:mod:`numerkit.products`.  The terminal state is drawn exactly by one
Gaussian sampler, one vector of normal shocks per path, with no time
stepping and no discretization bias: the two log prices at a constant short
rate, and under Vasicek the short rate, its integral and the log asset, which
are jointly Gaussian (Glasserman 2004, Monte Carlo Methods in Financial
Engineering, section 3.3).

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
from .errors import PricingError
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
        if self.paths < 2:
            # one antithetic pair has no dispersion to measure
            raise ValueError("paths must be at least 2")
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
    update of Chan, Golub & LeVeque.  PricingError on a non-finite result."""
    mean = 0.0
    m2 = 0.0
    for block, done in enumerate(range(0, mc.paths, _BLOCK_EXACT)):
        z = _rng(mc.seed, block).standard_normal(
            (min(_BLOCK_EXACT, mc.paths - done),) + shape)
        vals = payoff(z)
        mirrored = payoff(np.negative(z, out=z))
        n = vals.size
        with np.errstate(over="ignore", invalid="ignore"):
            vals += mirrored
            del mirrored  # its buffer is reused by the next block's draw
            vals *= 0.5
            block_mean = float(vals.mean())
            vals -= block_mean
            delta = block_mean - mean
            mean += delta * n / (done + n)
            m2 += float(np.dot(vals, vals)) + delta * delta * n * done / (done + n)
    if not (math.isfinite(mean) and math.isfinite(m2)):
        raise PricingError(f"non-finite Monte Carlo result: mean {mean}, dispersion {m2}")
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


def _gaussian_sampler(mean, cov, payoff_fn):
    """One draw of g ~ N(``mean``, ``cov``) per path, g = mean + L z with L
    from ``_psd_root``, handed to ``payoff_fn`` as its rows g[0], g[1], ...

    Each block copies its shocks into contiguous rows once, and row i is the
    sum of L[i, j] z_j over j <= i plus its mean, written out so that no BLAS
    call (and none of its threading) sits in the loop.
    """
    low = _psd_root(np.asarray(cov, dtype=float)).tolist()

    def payoff(z):
        shocks = np.ascontiguousarray(z.T)
        rows = []
        for m, coeffs in zip(mean, low):
            row = np.multiply(shocks[0], coeffs[0])
            for coeff, shock in zip(coeffs[1:len(rows) + 1], shocks[1:]):
                row += coeff * shock
            row += m
            rows.append(row)
        return payoff_fn(rows)

    return payoff, (len(mean),)


def _sampler(f: Formulation):
    """The simulated law of a formulation, discounted by its short rate: at a
    constant rate the exact lognormal (ln Y_T/Y_0, ln X_T/X_0), the first
    shock driving Y alone; under Vasicek ``_vasicek_law``'s draw, with the
    bond Y = A e^{-B r_T}."""
    T, terminal = f.maturity, f.terminal
    if isinstance(f.rate, VasicekBond):
        ln_a, b_fac = ratecurve.log_affine(f.rate.model, T, f.rate.maturity)
        spot = f.anchor[0] * math.exp(-f.q_x * T)

        def vasicek_payoff(g):
            r_end, rate_int, excess = g
            return np.exp(-rate_int) * terminal(
                spot * np.exp(excess + rate_int), np.exp(ln_a - b_fac * r_end))

        return _gaussian_sampler(
            *_vasicek_law(f.rate.model, f.sigma_x(0.0), -f.corr, T), vasicek_payoff)
    sx, sy, c, bps = f.sigma_x, f.sigma_y, f.corr, f.breakpoints
    var_x = integral(lambda t: sx(t) * sx(t), T, bps)
    var_y = integral(lambda t: sy(t) * sy(t), T, bps)
    cov = integral(lambda t: c * sx(t) * sy(t), T, bps)
    (x0, y0), disc = f.anchor, math.exp(-f.rate * T)

    def lognormal_payoff(g):
        y, x = g
        out = terminal(np.multiply(np.exp(x, out=x), x0, out=x),
                       np.multiply(np.exp(y, out=y), y0, out=y))
        out *= disc
        return out

    return _gaussian_sampler(
        ((f.rate - f.q_y) * T - 0.5 * var_y, (f.rate - f.q_x) * T - 0.5 * var_x),
        [[var_y, cov], [cov, var_x]], lognormal_payoff)


# ---------------------------------------------------------------------------
# public entry points


def price_mc(product, mc: McSpec) -> McResult:
    """Discounted-payoff estimate for a product at its stored initial state,
    simulated from its canonical formulation.

    Raises ValidationFailure on an invalid spec, and PricingError on an
    estimate or standard error that is not finite.
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
    payoff, shape = _gaussian_sampler(*_vasicek_law(model, 0.0, 0.0, maturity),
                                      lambda g: np.exp(-g[1]))
    return _accumulate(payoff, shape, mc)
