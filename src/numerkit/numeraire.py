"""Dimension reduction by change of numeraire.

A degree-one homogeneous claim on n+1 lognormal assets is worth S0 * U where U
solves a driftless n-dimensional equation in the price ratios z_i = S_i / S0.
This module builds that reduced problem (covariance quotient + ratio payoff),
certifies the quotient covariance in any dimension, and prices a one-ratio
reduced problem directly by Gaussian integration, an independent oracle for
the finite-difference and simulation engines.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import (
    DegenerateCovarianceError,
    DimensionError,
    PayoffEvaluationError,
    ReductionError,
    TimeDomainError,
    UnsupportedDimensionError,
)
from .model import MultiAssetProblem

_TAIL = 42.0  # standard deviations; exhausts double precision either side
_HOMOGENEITY_SAMPLES = 64
_HOMOGENEITY_TOL = 1e-8  # relative to 1 + |a P(S)|
_PSD_TOL = 1e-10  # smallest eigenvalue, relative to max(|b|, 1)


@dataclass(frozen=True)
class ReducedProblem:
    """Driftless problem in the price ratios z = (S_1/S_0, ..., S_n/S_0).

    ``payoff_f`` maps a ratio vector to the numeraire-denominated payoff
    F(z) = P(1, z).  ``kinks`` optionally lists ratio levels where F has a
    kink along any axis; the one-dimensional quadrature splits its panels
    there (without hints it still converges, just less sharply).
    """

    b_matrix: np.ndarray
    payoff_f: Callable[[np.ndarray], float]
    maturity: float
    kinks: tuple = ()

    def __post_init__(self):
        b = np.asarray(self.b_matrix, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise DimensionError("b_matrix must be square")
        b.setflags(write=False)
        object.__setattr__(self, "b_matrix", b)

    @property
    def dim(self) -> int:
        return self.b_matrix.shape[0]


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


def reduce(problem: MultiAssetProblem) -> ReducedProblem:
    """Quotient an (n+1)-asset homogeneous problem by its first asset.

    The reduced covariance is b[i][j] = a00 - ai0 - a0j + aij (indices 1-based
    into the original matrix); the reduced payoff fixes the numeraire price
    at one.  Raises if the payoff fails the homogeneity check.
    """
    payoff = problem.payoff
    n_all = problem.covariance.dim
    if not check_homogeneity(payoff, n_all):
        raise ReductionError(
            "payoff is not homogeneous of degree one; change of numeraire "
            "does not eliminate the level variable")
    a = problem.covariance.as_array()
    b = a[0, 0] - a[1:, :1] - a[:1, 1:] + a[1:, 1:]

    def payoff_f(z) -> float:
        z = np.asarray(z, dtype=float).ravel()
        return float(payoff(np.concatenate(([1.0], z))))

    return ReducedProblem(
        b_matrix=b,
        payoff_f=payoff_f,
        maturity=problem.maturity,
    )


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
    eig = np.linalg.eigvalsh(0.5 * (b + b.T))
    return bool(eig.min() >= -_PSD_TOL * max(scale, 1.0))


def _mapped_kinks(kinks, z0: float, half_var: float, s: float):
    """Kink levels k in ratio space -> standardized abscissae."""
    pts = []
    for k in kinks:
        if k > 0.0:
            x = (math.log(k / z0) + half_var) / s
            if -_TAIL < x < _TAIL:
                pts.append(x)
    return sorted(pts)


def quadrature_price(reduced: ReducedProblem, z, t: float = 0.0) -> float:
    """E[F(Z_T)] for a one-ratio reduced problem, by direct integration.

    Under the numeraire measure ln Z_T is Gaussian with mean
    ln z - B tau / 2 and variance B tau.  Adaptive Gauss-Kronrod with panel
    splits at declared payoff kinks, and F(z) itself when the variance B tau
    is zero.  The reduced equation is undiscounted; discounting re-enters
    through the numeraire when the caller forms V = S0 * U.
    """
    n = reduced.dim
    if n != 1:
        raise UnsupportedDimensionError(
            f"quadrature pricer supports one ratio, got {n}")
    if not 0.0 <= t < reduced.maturity:
        raise TimeDomainError(
            f"t={t} outside [0, {reduced.maturity}) for quadrature pricing")
    tau = reduced.maturity - t

    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.size != n:
        raise DimensionError(f"state has {z.size} ratios, problem has {n}")
    if np.any(z <= 0.0):
        raise ValueError("price ratios must be positive")

    var = float(reduced.b_matrix[0, 0]) * tau
    if not 0.0 <= var < math.inf:
        raise DegenerateCovarianceError(
            f"reduced variance must be finite and non-negative: B tau = {var:.3e}")
    if var == 0.0:
        return float(reduced.payoff_f(z))
    s = math.sqrt(var)
    half_var = 0.5 * var
    mu = math.log(z[0]) - half_var
    f = reduced.payoff_f
    phi_norm = 1.0 / math.sqrt(2.0 * math.pi)

    def integrand(x: float) -> float:
        return f(np.array([math.exp(mu + s * x)])) * phi_norm * math.exp(-0.5 * x * x)

    pts = _mapped_kinks(reduced.kinks, float(z[0]), half_var, s)
    val, _ = quad(integrand, -_TAIL, _TAIL, points=pts or None,
                  limit=400, epsabs=1e-14, epsrel=1e-11)
    if 0.0 < abs(val) < 1e-6:
        # far-tail price: the absolute gate alone lets the integrator
        # stop at percent-level relative error, so rerun with the gate
        # scaled to the first-pass magnitude.  Best effort: exact
        # cancellations cannot converge in relative terms, keep quiet.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(integrand, -_TAIL, _TAIL, points=pts or None,
                          limit=400, epsabs=abs(val) * 1e-11,
                          epsrel=1e-11)
    return float(val)
