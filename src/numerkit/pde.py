"""Finite-difference solvers for the full 2-D pricing equations and their
1-D reduced forms, plus the reduction-gap diagnostic.

Both solvers march Crank-Nicolson-style on log-spaced grids.  Stencils are
3-point non-uniform differences in the *original* coordinates, which are exact
on quadratics; linear terminal data therefore propagates exactly (up to
rounding) whenever the drift and discount rates coincide, which is what the
trivial-identity checks (forward payoffs, zero-strike conversions) rely on.

Time stepping:
  * coefficients are frozen per step at the interval midpoint (never touches
    the terminal time, where some discount coefficients are singular),
  * the first interval after the terminal date and after every declared
    coefficient breakpoint is damped: two implicit half-steps (Rannacher),
  * the 2-D scheme is a Craig-Sneyd predictor-corrector with the mixed
    derivative treated explicitly, theta = 1/2.

Terminal data is smoothed by cell averaging over a symmetric-in-z window per
node (Gauss-Legendre), which restores smooth convergence at payoff kinks while
leaving linear payoffs untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .errors import GridExtrapolationError, ReductionError, TimeDomainError

_GL1_X, _GL1_W = np.polynomial.legendre.leggauss(7)
_GL2_X, _GL2_W = np.polynomial.legendre.leggauss(4)


_SPAN_SIGMAS = 6.0  # grid half-width in standard deviations, plus the drift


@dataclass(frozen=True)
class GridSpec:
    nodes_per_axis: int = 400
    time_steps: int = 200

    def __post_init__(self):
        if self.nodes_per_axis < 16:
            raise ValueError("nodes_per_axis must be at least 16")
        if self.time_steps < 8:
            raise ValueError("time_steps must be at least 8")


@dataclass(frozen=True)
class Pde1Spec:
    """U_t + (1/2) diffusion(t) z^2 U_zz + drift(t) z U_z - discount(t) U = 0."""

    diffusion: Callable[[float], float]
    drift: Callable[[float], float]
    discount: Callable[[float], float]
    terminal: Callable[[np.ndarray], np.ndarray]
    maturity: float
    anchor: float = 1.0
    breakpoints: tuple = ()


@dataclass(frozen=True)
class Pde2Spec:
    """Full two-factor equation

    V_t + (1/2)[axx x^2 V_xx + 2 axy x y V_xy + ayy y^2 V_yy]
        + mux(t,x,y) x V_x + muy(t,x,y) y V_y - c(t,x,y) V = 0.

    Diffusion coefficients are functions of t alone; drifts and discount may
    depend on the state and must broadcast over (nx,1) x (1,ny) meshes.
    """

    diffusion_xx: Callable[[float], float]
    diffusion_xy: Callable[[float], float]
    diffusion_yy: Callable[[float], float]
    drift_x: Callable
    drift_y: Callable
    discount: Callable
    terminal: Callable[[np.ndarray, np.ndarray], np.ndarray]
    maturity: float
    anchor: tuple[float, float] = (1.0, 1.0)
    breakpoints: tuple = ()


# ---------------------------------------------------------------------------
# shared plumbing


def _time_grid(maturity: float, steps: int, breakpoints) -> np.ndarray:
    """Uniform-ish partition of [0, T] with nodes forced onto breakpoints."""
    cuts = sorted({0.0, maturity, *(b for b in breakpoints if 0.0 < b < maturity)})
    lengths = np.diff(cuts)
    # allocate steps proportionally, at least one per segment
    alloc = np.maximum(1, np.round(steps * lengths / maturity).astype(int))
    levels = [np.array([0.0])]
    for (a, b), n in zip(zip(cuts[:-1], cuts[1:]), alloc):
        levels.append(np.linspace(a, b, n + 1)[1:])
    return np.concatenate(levels)


def _integrate_coeff(fn, a: float, b: float, breakpoints, n: int = 256) -> float:
    """Midpoint-rule integral of a scalar coefficient, split at breakpoints.

    Midpoints on purpose: several discount coefficients are singular exactly
    at the terminal date and must never be sampled there.
    """
    total = 0.0
    cuts = sorted({a, b, *(c for c in breakpoints if a < c < b)})
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        h = (hi - lo) / n
        ts = lo + (np.arange(n) + 0.5) * h
        total += h * float(sum(fn(float(t)) for t in ts))
    return total


def _log_grid(anchor: float, half_width: float, nodes: int) -> np.ndarray:
    if not anchor > 0.0:
        raise ValueError("grid anchor must be positive")
    x = math.log(anchor) + np.linspace(-half_width, half_width, nodes)
    return np.exp(x)


def _stencils(z: np.ndarray):
    """3-point first/second derivative weights on a non-uniform grid.

    Interior rows are exact on quadratics; boundary rows carry a one-sided
    first derivative and a zero second derivative (far-field linearity).
    Returns (d1, d2), each a (3, n) array of [sub, diag, super] weights.
    """
    n = z.size
    d1 = np.zeros((3, n))
    d2 = np.zeros((3, n))
    hm = z[1:-1] - z[:-2]
    hp = z[2:] - z[1:-1]
    d1[0, 1:-1] = -hp / (hm * (hm + hp))
    d1[1, 1:-1] = (hp - hm) / (hm * hp)
    d1[2, 1:-1] = hm / (hp * (hm + hp))
    d2[0, 1:-1] = 2.0 / (hm * (hm + hp))
    d2[1, 1:-1] = -2.0 / (hm * hp)
    d2[2, 1:-1] = 2.0 / (hp * (hm + hp))
    d1[1, 0] = -1.0 / (z[1] - z[0])
    d1[2, 0] = 1.0 / (z[1] - z[0])
    d1[0, -1] = -1.0 / (z[-1] - z[-2])
    d1[1, -1] = 1.0 / (z[-1] - z[-2])
    return d1, d2


def _cell_average_1d(payoff, z: np.ndarray) -> np.ndarray:
    """Average the payoff over a symmetric window around each interior node.

    The window half-width is half the smaller neighbour spacing, so the
    average of any linear payoff is the nodal value itself.
    """
    vals = np.asarray(payoff(z), dtype=float).copy()
    half = 0.5 * np.minimum(z[1:-1] - z[:-2], z[2:] - z[1:-1])
    pts = z[1:-1, None] + half[:, None] * _GL1_X[None, :]
    avg = np.asarray(payoff(pts.ravel()), dtype=float).reshape(pts.shape)
    vals[1:-1] = avg @ (0.5 * _GL1_W)
    return vals


def _cell_average_2d(payoff, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    halfx = np.zeros_like(x)
    halfy = np.zeros_like(y)
    halfx[1:-1] = 0.5 * np.minimum(x[1:-1] - x[:-2], x[2:] - x[1:-1])
    halfy[1:-1] = 0.5 * np.minimum(y[1:-1] - y[:-2], y[2:] - y[1:-1])
    q = _GL2_X
    w = 0.5 * _GL2_W
    xs = x[:, None] + halfx[:, None] * q[None, :]          # (nx, q)
    ys = y[:, None] + halfy[:, None] * q[None, :]          # (ny, q)
    vals = payoff(xs[:, None, :, None], ys[None, :, None, :])  # (nx, ny, q, q)
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (x.size, y.size, q.size, q.size):
        vals = np.broadcast_to(vals, (x.size, y.size, q.size, q.size))
    return np.einsum("ijab,a,b->ij", vals, w, w)


def _tridiag_solve_batch(lower, diag, upper, rhs):
    """Thomas algorithm along axis 0, vectorized over axis 1.

    Band arrays may have batch size 1 (shared matrix) while rhs is wide.
    """
    n = rhs.shape[0]
    cp = np.empty((n,) + ((rhs.shape[1],) if lower.shape[1] > 1 else (1,)))
    out = np.empty_like(rhs)
    inv = 1.0 / diag[0]
    cp[0] = upper[0] * inv
    out[0] = rhs[0] * inv
    for i in range(1, n):
        inv = 1.0 / (diag[i] - lower[i] * cp[i - 1])
        cp[i] = upper[i] * inv
        out[i] = (rhs[i] - lower[i] * out[i - 1]) * inv
    for i in range(n - 2, -1, -1):
        out[i] -= cp[i] * out[i + 1]
    return out


class _LineOperator:
    """Tridiagonal operator along one axis of a 2-D array (or a vector).

    Holds band arrays shaped (n, m) with m the batch width (possibly 1 for a
    batch-shared matrix).  ``axis`` selects which array axis the bands act on.
    """

    def __init__(self, lower, diag, upper, axis: int):
        self.lower, self.diag, self.upper = lower, diag, upper
        self.axis = axis

    def _oriented(self, v):
        return v if self.axis == 0 else v.T

    def apply(self, v):
        w = self._oriented(v)
        out = self.diag * w
        out[1:] += self.lower[1:] * w[:-1]
        out[:-1] += self.upper[:-1] * w[1:]
        return out if self.axis == 0 else out.T

    def solve_shifted(self, rhs, wdt):
        """Solve (I - wdt * L) u = rhs along the operator axis."""
        r = self._oriented(rhs)
        lo = -wdt * self.lower
        di = 1.0 - wdt * self.diag
        up = -wdt * self.upper
        if lo.shape[1] == 1:
            n = r.shape[0]
            ab = np.zeros((3, n))
            ab[0, 1:] = up[:-1, 0]
            ab[1] = di[:, 0]
            ab[2, :-1] = lo[1:, 0]
            out = solve_banded((1, 1), ab, r, overwrite_ab=True, check_finite=False)
        else:
            out = _tridiag_solve_batch(lo, di, up, r)
        return out if self.axis == 0 else out.T


def _bands_from_coeffs(alpha, beta, gamma, d1, d2):
    """Assemble L = alpha*D2 + beta*D1 - gamma as band arrays.

    Inputs broadcast against (n, 1); the three returned bands share a common
    batch width (1 when every line along the batch axis sees the same matrix,
    which selects the fast multi-rhs banded solve).
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    lower = alpha * d2[0][:, None] + beta * d1[0][:, None]
    diag = alpha * d2[1][:, None] + beta * d1[1][:, None] - gamma
    upper = alpha * d2[2][:, None] + beta * d1[2][:, None]
    n = d1.shape[1]
    m = max(lower.shape[1], diag.shape[1], upper.shape[1])
    out = []
    for band in (lower, diag, upper):
        tgt = (n, m)
        out.append(np.ascontiguousarray(np.broadcast_to(band, tgt)))
    return tuple(out)


# ---------------------------------------------------------------------------
# 1-D solver


class Solution1D:
    """Stored time levels of a 1-D solve; callable as U(z, t)."""

    def __init__(self, z, times, values):
        self.z = z
        self.times = times
        self.values = values

    def __call__(self, z: float, t: float) -> float:
        if not (self.times[0] - 1e-12 <= t <= self.times[-1] + 1e-12):
            raise TimeDomainError(f"t={t} outside [0, {self.times[-1]}]")
        if not (self.z[0] <= z <= self.z[-1]):
            raise GridExtrapolationError(
                f"z={z} outside the truncated grid [{self.z[0]:g}, {self.z[-1]:g}]")
        k = int(np.searchsorted(self.times, t, side="right") - 1)
        k = min(max(k, 0), len(self.times) - 2)
        t0, t1 = self.times[k], self.times[k + 1]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        row = (1.0 - w) * self.values[k] + w * self.values[k + 1]
        return float(np.interp(z, self.z, row))


def solve_1d(spec: Pde1Spec, grid: GridSpec) -> Solution1D:
    """Crank-Nicolson solve of a Pde1Spec; returns a callable U(z, t)."""
    T = spec.maturity
    var = _integrate_coeff(spec.diffusion, 0.0, T, spec.breakpoints)
    drift_shift = _integrate_coeff(
        lambda t: spec.drift(t) - 0.5 * spec.diffusion(t), 0.0, T, spec.breakpoints)
    half = _SPAN_SIGMAS * math.sqrt(max(var, 0.0)) + abs(drift_shift)
    half = max(half, 1e-2)
    z = _log_grid(spec.anchor, half, grid.nodes_per_axis)
    d1, d2 = _stencils(z)

    times = _time_grid(T, grid.time_steps, spec.breakpoints)
    restart = {T, *(b for b in spec.breakpoints if 0.0 < b < T)}
    values = np.empty((times.size, z.size))
    values[-1] = _cell_average_1d(spec.terminal, z)

    z2 = z * z

    def bands_at(t_mid):
        alpha = 0.5 * spec.diffusion(t_mid) * z2
        beta = spec.drift(t_mid) * z
        gamma = spec.discount(t_mid)
        return _bands_from_coeffs(alpha[:, None], beta[:, None], gamma, d1, d2)

    u = values[-1].copy()
    for k in range(times.size - 2, -1, -1):
        t0, t1 = times[k], times[k + 1]
        dt = t1 - t0
        if t1 in restart:
            # Rannacher: two implicit half steps, coefficients at half midpoints
            for frac in (0.75, 0.25):
                op = _LineOperator(*bands_at(t0 + frac * dt), axis=0)
                u = op.solve_shifted(u[:, None], 0.5 * dt)[:, 0]
        else:
            op = _LineOperator(*bands_at(0.5 * (t0 + t1)), axis=0)
            rhs = u[:, None] + 0.5 * dt * op.apply(u[:, None])
            u = op.solve_shifted(rhs, 0.5 * dt)[:, 0]
        values[k] = u
    return Solution1D(z, times, values)


# ---------------------------------------------------------------------------
# 2-D solver


class Solution2D:
    """The t = 0 and terminal planes of a 2-D solve; callable as V(x, y, t)
    at those two times only (to 1e-12), where every caller reads it."""

    def __init__(self, x, y, times, values):
        self.x = x
        self.y = y
        self.times = times
        self.values = values

    def __call__(self, x: float, y: float, t: float) -> float:
        stored = [k for k, tk in enumerate(self.times) if abs(t - tk) <= 1e-12]
        if not stored:
            raise TimeDomainError(
                f"t={t} is not a stored time; stored: {list(self.times)}")
        if not (self.x[0] <= x <= self.x[-1]) or not (self.y[0] <= y <= self.y[-1]):
            raise GridExtrapolationError(
                f"({x:g}, {y:g}) outside the truncated grid")
        plane = self.values[stored[0]]
        i = min(max(int(np.searchsorted(self.x, x) - 1), 0), self.x.size - 2)
        j = min(max(int(np.searchsorted(self.y, y) - 1), 0), self.y.size - 2)
        fx = (x - self.x[i]) / (self.x[i + 1] - self.x[i])
        fy = (y - self.y[j]) / (self.y[j + 1] - self.y[j])
        return float(
            (1 - fx) * (1 - fy) * plane[i, j]
            + fx * (1 - fy) * plane[i + 1, j]
            + (1 - fx) * fy * plane[i, j + 1]
            + fx * fy * plane[i + 1, j + 1])


class _Ops2D:
    """Frozen-coefficient operators for one time step."""

    def __init__(self, spec, xg, yg, sx, sy, t_mid):
        axx = float(spec.diffusion_xx(t_mid))
        axy = float(spec.diffusion_xy(t_mid))
        ayy = float(spec.diffusion_yy(t_mid))
        X = xg[:, None]
        Y = yg[None, :]
        mux = np.asarray(spec.drift_x(t_mid, X, Y), dtype=float)
        muy = np.asarray(spec.drift_y(t_mid, X, Y), dtype=float)
        c = np.asarray(spec.discount(t_mid, X, Y), dtype=float)
        alpha1 = 0.5 * axx * (xg * xg)[:, None]
        beta1 = np.atleast_2d(mux) * X
        gamma = 0.5 * np.atleast_2d(c)
        self.op1 = _LineOperator(
            *_bands_from_coeffs(alpha1, beta1, gamma, sx[0], sx[1]), axis=0)
        alpha2 = 0.5 * ayy * (yg * yg)[:, None]
        beta2t = (np.atleast_2d(muy) * Y).T
        gammat = gamma.T
        self.op2 = _LineOperator(
            *_bands_from_coeffs(alpha2, beta2t, gammat, sy[0], sy[1]), axis=1)
        self.mixed_coeff = axy * np.outer(xg, yg)
        self._d1x = sx[0]
        self._d1y = sy[0]
        self._has_mixed = axy != 0.0

    def apply_mixed(self, v):
        if not self._has_mixed:
            return 0.0
        d1y = self._d1y
        inner = np.zeros_like(v)
        inner[:, 1:-1] = (v[:, :-2] * d1y[0][1:-1] + v[:, 1:-1] * d1y[1][1:-1]
                          + v[:, 2:] * d1y[2][1:-1])
        d1x = self._d1x
        out = np.zeros_like(v)
        out[1:-1, :] = (inner[:-2, :] * d1x[0][1:-1, None]
                        + inner[1:-1, :] * d1x[1][1:-1, None]
                        + inner[2:, :] * d1x[2][1:-1, None])
        out *= self.mixed_coeff
        return out


def solve_2d(spec: Pde2Spec, grid: GridSpec) -> Solution2D:
    """Craig-Sneyd ADI solve of a Pde2Spec; returns V(x, y, t) at t = 0, T."""
    T = spec.maturity
    bps = spec.breakpoints
    half = []
    x0 = np.array([[spec.anchor[0]]])
    y0 = np.array([[spec.anchor[1]]])
    for diff_fn, drift_fn in (
        (spec.diffusion_xx, spec.drift_x),
        (spec.diffusion_yy, spec.drift_y),
    ):
        var = _integrate_coeff(diff_fn, 0.0, T, bps)
        shift = _integrate_coeff(
            lambda t: float(np.asarray(drift_fn(t, x0, y0)).ravel()[0])
            - 0.5 * diff_fn(t), 0.0, T, bps)
        half.append(max(_SPAN_SIGMAS * math.sqrt(max(var, 0.0)) + abs(shift), 1e-2))
    xg = _log_grid(spec.anchor[0], half[0], grid.nodes_per_axis)
    yg = _log_grid(spec.anchor[1], half[1], grid.nodes_per_axis)
    sx = _stencils(xg)
    sy = _stencils(yg)

    times = _time_grid(T, grid.time_steps, bps)
    restart = {T, *(b for b in bps if 0.0 < b < T)}
    values = np.empty((2, xg.size, yg.size))
    values[1] = _cell_average_2d(spec.terminal, xg, yg)

    w = values[1].copy()
    theta = 0.5
    for k in range(times.size - 2, -1, -1):
        t0, t1 = times[k], times[k + 1]
        dt = t1 - t0
        if t1 in restart:
            # damped start: two implicit (Douglas theta=1) half steps
            for frac in (0.75, 0.25):
                ops = _Ops2D(spec, xg, yg, sx, sy, t0 + frac * dt)
                h = 0.5 * dt
                y0 = w + h * (ops.apply_mixed(w) + ops.op1.apply(w) + ops.op2.apply(w))
                y1 = ops.op1.solve_shifted(y0 - h * ops.op1.apply(w), h)
                w = ops.op2.solve_shifted(y1 - h * ops.op2.apply(w), h)
        else:
            ops = _Ops2D(spec, xg, yg, sx, sy, 0.5 * (t0 + t1))
            a1w = ops.op1.apply(w)
            a2w = ops.op2.apply(w)
            a0w = ops.apply_mixed(w)
            y0 = w + dt * (a0w + a1w + a2w)
            y1 = ops.op1.solve_shifted(y0 - theta * dt * a1w, theta * dt)
            y2 = ops.op2.solve_shifted(y1 - theta * dt * a2w, theta * dt)
            y0h = y0 + 0.5 * dt * (ops.apply_mixed(y2) - a0w)
            y1h = ops.op1.solve_shifted(y0h - theta * dt * a1w, theta * dt)
            w = ops.op2.solve_shifted(y1h - theta * dt * a2w, theta * dt)
    values[0] = w
    return Solution2D(xg, yg, np.array([0.0, T]), values)


# ---------------------------------------------------------------------------
# reduction gap


def _swap_axes(spec2: Pde2Spec) -> Pde2Spec:
    """The same equation with x and y exchanged."""
    drift_x, drift_y, discount = spec2.drift_x, spec2.drift_y, spec2.discount
    terminal = spec2.terminal
    return Pde2Spec(
        diffusion_xx=spec2.diffusion_yy,
        diffusion_xy=spec2.diffusion_xy,
        diffusion_yy=spec2.diffusion_xx,
        drift_x=lambda t, X, Y: drift_y(t, Y, X),
        drift_y=lambda t, X, Y: drift_x(t, Y, X),
        discount=lambda t, X, Y: discount(t, Y, X),
        terminal=lambda x, y: terminal(y, x),
        maturity=spec2.maturity,
        anchor=spec2.anchor[::-1],
        breakpoints=spec2.breakpoints,
    )


def derive_reduced(spec2: Pde2Spec, numeraire_axis: int) -> Pde1Spec:
    """Quotient the 2-D equation by the numeraire axis.

    With y the numeraire and z = x/y, V = y U(z):
      U_t + (1/2)(axx - 2 axy + ayy) z^2 U_zz + (mux - muy) z U_z - (c - muy) U = 0,
      U(z, T) = terminal(z, 1).
    A numeraire on axis 0 swaps the axes first.  The drift/discount
    combinations must be state-independent for the reduction to hold; this
    is checked on a sample of states.
    """
    if numeraire_axis == 0:
        spec2 = _swap_axes(spec2)
    elif numeraire_axis != 1:
        raise ValueError("numeraire_axis must be 0 or 1")
    x0, y0 = spec2.anchor
    T = spec2.maturity
    payoff = lambda z: np.asarray(spec2.terminal(np.asarray(z), np.asarray(1.0)), dtype=float)

    # state-independence / homogeneity checks on a coarse state sample
    scales = np.array([0.25, 1.0, 4.0])
    Xs = x0 * scales[:, None]
    Ys = y0 * scales[None, :]
    for t in (0.0, 0.5 * T, 0.999 * T):
        muy = np.asarray(spec2.drift_y(t, Xs, Ys), dtype=float)
        for fn, label in ((spec2.drift_x, "drift"), (spec2.discount, "discount")):
            arr = np.broadcast_to(np.asarray(fn(t, Xs, Ys), dtype=float) - muy, (3, 3))
            spread = float(np.max(arr) - np.min(arr))
            if spread > 1e-10 * (1.0 + float(np.max(np.abs(arr)))):
                raise ReductionError(
                    f"reduced {label} coefficient is state-dependent (spread {spread:g})")
    a = 1.7
    zs = (x0 / y0) * np.array([0.5, 1.0, 2.0])
    t2 = np.asarray(spec2.terminal(a * zs, np.full_like(zs, a)), dtype=float)
    t1v = np.asarray(payoff(zs), dtype=float)
    if np.max(np.abs(t2 - a * t1v)) > 1e-9 * (1.0 + float(np.max(np.abs(t2)))):
        raise ReductionError("terminal payoff is not homogeneous of degree one")

    x0m = np.array([[x0]])
    y0m = np.array([[y0]])

    def scalar(fn, t):
        return float(np.asarray(fn(t, x0m, y0m)).ravel()[0])

    return Pde1Spec(
        diffusion=lambda t: spec2.diffusion_xx(t) - 2.0 * spec2.diffusion_xy(t) + spec2.diffusion_yy(t),
        drift=lambda t: scalar(spec2.drift_x, t) - scalar(spec2.drift_y, t),
        discount=lambda t: scalar(spec2.discount, t) - scalar(spec2.drift_y, t),
        terminal=payoff,
        maturity=T,
        anchor=x0 / y0,
        breakpoints=spec2.breakpoints,
    )


def reduction_gap(
    spec2: Pde2Spec,
    numeraire_axis: int,
    grid: GridSpec,
    probes: Optional[Sequence[tuple[float, float]]] = None,
) -> float:
    """Max relative gap between the 2-D solve and the numeraire-quotient 1-D solve.

    For each probe (x, y) compares V2d(x, y, 0) against N * U1d(ratio, 0) where
    N is the numeraire coordinate and ratio the quotient coordinate.
    """
    full = solve_2d(spec2, grid)
    red = solve_1d(derive_reduced(spec2, numeraire_axis), grid)
    x0, y0 = spec2.anchor
    if probes is None:
        cs = (0.95, 1.0, 1.05)
        probes = [(x0 * cx, y0 * cy) for cx in cs for cy in cs]
    worst = 0.0
    for probe in probes:
        v2 = full(*probe, 0.0)
        numeraire, other = probe[numeraire_axis], probe[1 - numeraire_axis]
        v1 = numeraire * red(other / numeraire, 0.0)
        denom = max(abs(v2), abs(v1))
        gap = abs(v2 - v1) if denom < 1e-12 else abs(v2 - v1) / denom
        worst = max(worst, gap)
    return worst
