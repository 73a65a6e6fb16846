"""Dimension reduction by change of numeraire.

A degree-one homogeneous claim on n+1 lognormal assets is worth S0 * U where U
solves a driftless n-dimensional equation in the price ratios z_i = S_i / S0.
This module builds that reduced problem (covariance quotient + ratio payoff),
certifies the quotient covariance, and prices the reduced problem directly by
Gaussian integration, which serves as an independent oracle for the
finite-difference and simulation engines.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import roots_hermite

from .errors import (
    DegenerateCovarianceError,
    DimensionError,
    PayoffEvaluationError,
    ReductionError,
    TimeDomainError,
    UnsupportedDimensionError,
)
from .model import MultiAssetProblem

_GH_NODES = 128
_TAIL = 42.0  # standard deviations; exhausts double precision either side


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


def check_homogeneity(payoff, dim: int, samples: int = 64,
                      tol: float = 1e-8) -> bool:
    """Test P(a*S) = a*P(S) on random positive states and scalings.

    States and scaling factors are log-uniform on [0.1, 10] from a fixed
    seed, so the verdict is reproducible.
    """
    rng = np.random.default_rng(20240901)
    lo, hi = math.log(0.1), math.log(10.0)
    for k in range(samples):
        s = np.exp(rng.uniform(lo, hi, size=dim))
        a = math.exp(rng.uniform(lo, hi))
        base = float(payoff(s))
        scaled = float(payoff(a * s))
        if not (math.isfinite(base) and math.isfinite(scaled)):
            raise PayoffEvaluationError(
                "payoff returned a non-finite value at sample %d: S=%s, a=%.6g"
                % (k, np.array2string(s, precision=6), a))
        if abs(scaled - a * base) > tol * (1.0 + abs(a * base)):
            return False
    return True


def reduce(problem: MultiAssetProblem, kinks: Sequence[float] = ()) -> ReducedProblem:
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
        kinks=tuple(kinks),
    )


def certify_psd(b, tol: float = 1e-10) -> bool:
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
    return bool(eig.min() >= -tol * max(scale, 1.0))


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
    """E[F(Z_T)] for the reduced driftless problem, by direct integration.

    Under the numeraire measure ln Z_T is Gaussian with mean
    ln z - diag(B) tau / 2 and covariance B tau.  One ratio: adaptive
    Gauss-Kronrod with panel splits at declared payoff kinks, and F(z) itself
    when the variance B tau is zero.  Two ratios: 128-point tensor
    Gauss-Hermite on a positive definite B.  The reduced equation is
    undiscounted; discounting re-enters through the numeraire when the
    caller forms V = S0 * U.
    """
    n = reduced.dim
    if n > 2:
        raise UnsupportedDimensionError(
            f"quadrature pricer supports 1 or 2 ratios, got {n}")
    if not 0.0 <= t < reduced.maturity:
        raise TimeDomainError(
            f"t={t} outside [0, {reduced.maturity}) for quadrature pricing")
    tau = reduced.maturity - t
    b = reduced.b_matrix

    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.size != n:
        raise DimensionError(f"state has {z.size} ratios, problem has {n}")
    if np.any(z <= 0.0):
        raise ValueError("price ratios must be positive")

    if n == 1:
        var = float(b[0, 0]) * tau
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

    # two ratios: Cholesky of B tau, tensor Gauss-Hermite
    eig = np.linalg.eigvalsh(0.5 * (b + b.T))
    if eig.min() <= 0.0:
        raise DegenerateCovarianceError(
            f"reduced covariance is not positive definite: min eig {eig.min():.3e}")
    chol = np.linalg.cholesky(b * tau)
    nodes, weights = roots_hermite(_GH_NODES)
    mu = np.log(z) - 0.5 * np.diag(b) * tau
    f = reduced.payoff_f
    total = 0.0
    scaled = math.sqrt(2.0) * chol
    for i in range(_GH_NODES):
        wi = weights[i]
        row = mu + nodes[i] * scaled[:, 0]
        for j in range(_GH_NODES):
            u = row + nodes[j] * scaled[:, 1]
            total += wi * weights[j] * f(np.exp(u))
    return total / math.pi
