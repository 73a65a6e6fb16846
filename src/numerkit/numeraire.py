"""Dimension reduction by change of numeraire.

A degree-one homogeneous claim on n+1 lognormal assets is worth S0 * U where U
solves a driftless n-dimensional equation in the price ratios z_i = S_i / S0,
with ratio payoff F(z) = P(1, z).  This module checks the homogeneity, forms
the quotient covariance of the ratios in any dimension, certifies it, and
prices one lognormal ratio directly by Gaussian integration, an independent
oracle for the finite-difference and simulation engines.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateCovarianceError,
    DimensionError,
    PayoffEvaluationError,
    PricingError,
    ReductionError,
)

_TAIL = 42.0  # standard deviations; exhausts double precision either side
_PANEL = 2.0  # standard deviations per Gauss-Legendre panel
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)
_PHI = 1.0 / math.sqrt(2.0 * math.pi)  # standard normal density at zero
_HOMOGENEITY_SAMPLES = 64
_HOMOGENEITY_TOL = 1e-8  # relative to 1 + |a P(S)|
_PSD_TOL = 1e-10  # smallest eigenvalue, relative to max(|b|, 1)


def check_homogeneity(payoff, dim: int) -> bool:
    """Test P(a*S) = a*P(S) on random positive states and scalings.

    States and scaling factors are log-uniform on [0.1, 10] from a fixed
    seed, so the verdict is reproducible.
    """
    rng = np.random.default_rng(20240901)
    lo, hi = math.log(0.1), math.log(10.0)
    for k in range(_HOMOGENEITY_SAMPLES):
        s = np.exp(rng.uniform(lo, hi, size=dim))
        a = math.exp(rng.uniform(lo, hi))
        base = float(payoff(s))
        scaled = float(payoff(a * s))
        if not (math.isfinite(base) and math.isfinite(scaled)):
            raise PayoffEvaluationError(
                "payoff returned a non-finite value at sample %d: S=%s, a=%.6g"
                % (k, np.array2string(s, precision=6), a))
        if abs(scaled - a * base) > _HOMOGENEITY_TOL * (1.0 + abs(a * base)):
            return False
    return True


def reduce(covariance, payoff) -> np.ndarray:
    """The quotient covariance b[i][j] = a00 - ai0 - a0j + aij (indices
    1-based into a) of an (n+1)-asset claim with log-return covariance a,
    quoted in its first asset.  Raises DimensionError below two assets and
    ReductionError when ``payoff`` (of the n+1 prices) fails the
    homogeneity check.
    """
    a = np.asarray(covariance, dtype=float)
    if a.shape[0] < 2:
        raise DimensionError("need at least two assets (numeraire plus one)")
    if not check_homogeneity(payoff, a.shape[0]):
        raise ReductionError(
            "payoff is not homogeneous of degree one; change of numeraire "
            "does not eliminate the level variable")
    return a[0, 0] - a[1:, :1] - a[:1, 1:] + a[1:, 1:]


def certify_psd(b) -> bool:
    """True when the matrix is symmetric positive semidefinite.

    The reduction theorem guarantees this for any quotient of a PSD loading
    covariance; this is the checkable certificate.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionError("matrix must be square")
    if not np.all(np.isfinite(b)):
        raise DimensionError("matrix must be finite")
    scale = float(np.max(np.abs(b)))
    if not np.allclose(b, b.T, rtol=0.0, atol=1e-12 * (1.0 + scale)):
        raise DimensionError("matrix must be symmetric")
    eig = np.linalg.eigvalsh(0.5 * b + 0.5 * b.T)  # b + b.T overflows at 1e308
    return bool(eig.min() >= -_PSD_TOL * max(scale, 1.0))


def quadrature_price(variance: float, ratio: float, payoff, kinks=()) -> float:
    """E[F(Z)] for one driftless lognormal ratio, by direct integration.

    Z starts at ``ratio`` and ln Z has ``variance`` by the payoff date;
    ``payoff`` is F, called once on an array of ratios, and ``kinks`` the
    ratio levels where F kinks.  A fixed 32-node Gauss-Legendre rule on
    panels 2 standard deviations wide over +-42, split again at each kink, so
    the relative accuracy holds far into the tails; F(ratio) itself when the
    variance is zero.  The reduced equation is undiscounted; discounting
    re-enters through the numeraire when the caller forms V = S0 * U.
    Raises ValueError on a non-positive ratio, PricingError on an infinite
    or NaN one and on a sum that is not finite.
    """
    if ratio <= 0.0:
        raise ValueError("price ratios must be positive")
    if not ratio < math.inf:
        raise PricingError(f"price ratio is not finite: {ratio}")
    if not 0.0 <= variance < math.inf:
        raise DegenerateCovarianceError(
            f"reduced variance must be finite and non-negative: {variance:.3e}")
    if variance == 0.0:
        return float(payoff(ratio))
    s = math.sqrt(variance)
    mu = math.log(ratio) - 0.5 * variance
    k = np.asarray(kinks, dtype=float)
    cuts = np.clip((np.log(k[k > 0.0]) - mu) / s, -_TAIL, _TAIL)
    edges = np.unique(np.r_[np.arange(-_TAIL, _TAIL + _PANEL, _PANEL), cuts])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * _NODES).ravel()
    with np.errstate(all="ignore"):
        w = (half[:, None] * _WEIGHTS).ravel() * np.exp(-0.5 * x * x) * _PHI
        val = float(np.sum(w * payoff(np.exp(mu + s * x))))
    if not math.isfinite(val):
        raise PricingError(f"quadrature sum is not finite: {val}")
    return val
