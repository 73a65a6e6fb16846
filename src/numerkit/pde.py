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
    derivative treated explicitly, theta = 1/2,
  * each step factors I - (dt/2) L once per axis (``_Tridiag``), and the 1-D
    solver holds one factorisation while its coefficients and dt repeat.

Terminal data is smoothed by cell averaging over a symmetric-in-z window per
node (Gauss-Legendre), which restores smooth convergence at payoff kinks while
leaving linear payoffs untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import GridExtrapolationError, ReductionError, TimeDomainError

_GL1_X, _GL1_W = np.polynomial.legendre.leggauss(7)
_GL2_X, _GL2_W = np.polynomial.legendre.leggauss(4)


_SPAN_SIGMAS = 6.0  # grid half-width in standard deviations, plus the drift

# Largest float64 footprint a solve may allocate, checked from its GridSpec
# before any array is built: the stored levels plus _VECTORS_1D working
# vectors of a 1-D solve, or the _PLANES_2D working planes of a 2-D one.
_BUDGET_BYTES = 2 ** 30
_VECTORS_1D = 48
_PLANES_2D = 40


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


def _check_budget(cells: int, what: str) -> None:
    """Refuse a grid of ``cells`` float64 values over the budget."""
    need = 8 * cells
    if need > _BUDGET_BYTES:
        raise ValueError(
            f"{what} needs about {need / 2**20:,.0f} MB, over the "
            f"{_BUDGET_BYTES >> 20} MB grid budget; use fewer nodes or steps")


def _time_grid(maturity: float, steps: int, breakpoints):
    """(times, lengths): a partition of [0, T] with nodes on the breakpoints,
    and the length of each step.

    A segment of n steps takes its nodes from ``linspace``, so every
    breakpoint is a node, and one nominal length (b - a) / n for all its
    steps, so the steps of a segment are bit-equal.
    """
    cuts = sorted({0.0, maturity, *(b for b in breakpoints if 0.0 < b < maturity)})
    lengths = np.diff(cuts)
    # allocate steps proportionally, at least one per segment
    alloc = np.maximum(1, np.round(steps * lengths / maturity).astype(int))
    levels, steps_out = [np.array([0.0])], []
    for (a, b), n in zip(zip(cuts[:-1], cuts[1:]), alloc):
        levels.append(np.linspace(a, b, n + 1)[1:])
        steps_out.append(np.full(n, (b - a) / n))
    return np.concatenate(levels), np.concatenate(steps_out)


def _half_width(diffusion, drift, maturity: float, breakpoints, n: int = 256) -> float:
    """Log-space grid half-width: _SPAN_SIGMAS standard deviations of the
    integrated diffusion plus the integrated log drift, at least 1e-2.

    Midpoint sums split at breakpoints, each coefficient evaluated once per
    midpoint.  Midpoints on purpose: several discount coefficients are
    singular exactly at the terminal date and must never be sampled there.
    """
    var = shift = 0.0
    cuts = sorted({0.0, maturity, *(c for c in breakpoints if 0.0 < c < maturity)})
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        h = (hi - lo) / n
        ts = [float(t) for t in lo + (np.arange(n) + 0.5) * h]
        diff = [diffusion(t) for t in ts]
        var += h * float(sum(diff))
        shift += h * float(sum(drift(t) - 0.5 * a for t, a in zip(ts, diff)))
    return max(_SPAN_SIGMAS * math.sqrt(max(var, 0.0)) + abs(shift), 1e-2)


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


def _bands(a, b, c, s2, s1):
    """(lower, diag, upper) of L = a s2 + b s1 - c, for the scaled stencils
    s2 = z^2 D2 / 2 and s1 = z D1 and coefficients broadcast against them."""
    lower, diag, upper = a * s2 + b * s1
    return lower, diag - c, upper


def _apply(bands, v):
    """The tridiagonal matrix of ``bands`` times v, along axis 0."""
    lower, diag, upper = bands
    out = diag * v
    out[1:] += lower[1:] * v[:-1]
    out[:-1] += upper[:-1] * v[1:]
    return out


class _Tridiag:
    """A tridiagonal L acting along axis 0, with I - h L factored for one h.

    ``diag`` is (n,) for a single line, (n, 1) when every line of an (n, m)
    plane sees the same matrix, or (n, m) for one matrix per line; the
    off-diagonals broadcast against it.  One matrix is factored by LAPACK
    ``gttrf`` and solved by ``gttrs`` wherever each line of the operand is
    contiguous in memory (a vector, or a transposed plane).  Where the lines
    interleave (a C-order plane) or each has its own matrix, a Thomas sweep
    vectorised over the lines factors and solves; a matrix shared by every
    line is swept on Python floats.  Either factorisation serves any number
    of solves.
    """

    def __init__(self, lower, diag, upper, h: float):
        self.bands = (lower, diag, upper)
        lo, di, up = -h * lower, 1.0 - h * diag, -h * upper
        self._lu = None
        n = di.shape[0]
        if di.size == n:
            lo, di, up = lo.ravel(), di.ravel(), up.ravel()
            *self._lu, info = dgttrf(lo[1:], di, up[:-1])
            if info:
                raise np.linalg.LinAlgError("singular tridiagonal system")
            if diag.ndim == 1:
                return
            lo, di, up = lo.tolist(), di.tolist(), up.tolist()
            cp, inv = [0.0] * n, [0.0] * n
        else:
            cp, inv = np.empty(di.shape), np.empty(di.shape)
        inv[0] = 1.0 / di[0]
        cp[0] = up[0] * inv[0]
        for i in range(1, n):
            inv[i] = 1.0 / (di[i] - lo[i] * cp[i - 1])
            cp[i] = up[i] * inv[i]
        self._sweep = (lo, cp, inv)

    def apply(self, v):
        """L v."""
        return _apply(self.bands, v)

    def solve(self, rhs):
        """u with (I - h L) u = rhs; rhs may be overwritten."""
        if self._lu is not None and rhs.flags.f_contiguous:
            return dgttrs(*self._lu, rhs, overwrite_b=1)[0]
        lo, cp, inv = self._sweep
        n = rhs.shape[0]
        rhs[0] *= inv[0]
        for i in range(1, n):
            rhs[i] -= lo[i] * rhs[i - 1]
            rhs[i] *= inv[i]
        for i in range(n - 2, -1, -1):
            rhs[i] -= cp[i] * rhs[i + 1]
        return rhs


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
    """Crank-Nicolson solve of a Pde1Spec; returns a callable U(z, t).

    Each step evaluates the coefficients once and factors I - (dt/2) L only
    when they or dt differ from the step before, so a segment of constant
    coefficients holds one factorisation throughout.
    """
    n, levels = grid.nodes_per_axis, grid.time_steps + len(spec.breakpoints) + 2
    _check_budget((levels + _VECTORS_1D) * n, "a 1-D solve")
    T = spec.maturity
    half = _half_width(spec.diffusion, spec.drift, T, spec.breakpoints)
    z = _log_grid(spec.anchor, half, n)
    d1, d2 = _stencils(z)
    s2, s1 = 0.5 * z * z * d2, z * d1

    times, steps = _time_grid(T, grid.time_steps, spec.breakpoints)
    restart = {T, *(b for b in spec.breakpoints if 0.0 < b < T)}
    values = np.empty((times.size, z.size))
    values[-1] = _cell_average_1d(spec.terminal, z)

    held = None
    u = values[-1].copy()
    for k in range(times.size - 2, -1, -1):
        t0, dt = times[k], steps[k]
        damped = times[k + 1] in restart
        # Rannacher: two implicit half steps, coefficients at half midpoints
        for t in (t0 + 0.75 * dt, t0 + 0.25 * dt) if damped else (t0 + 0.5 * dt,):
            key = (spec.diffusion(t), spec.drift(t), spec.discount(t), 0.5 * dt)
            if key != held:
                held, h = key, key[3]
                lower, diag, upper = _bands(*key[:3], s2, s1)
                op = _Tridiag(lower, diag, upper, h)
                explicit = (h * lower, 1.0 + h * diag, h * upper)  # I + h L
            u = op.solve(u if damped else _apply(explicit, u))
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
    """Frozen-coefficient operators for one time step: ``op1`` along x and
    ``op2`` along y (acting on transposed planes), each factored for h.
    ``sx`` and ``sy`` hold an axis's stencil D1 and its scaled stencils."""

    def __init__(self, spec, xg, yg, sx, sy, t_mid, h):
        axx = float(spec.diffusion_xx(t_mid))
        axy = float(spec.diffusion_xy(t_mid))
        ayy = float(spec.diffusion_yy(t_mid))
        X = xg[:, None]
        Y = yg[None, :]
        mux = np.asarray(spec.drift_x(t_mid, X, Y), dtype=float)
        muy = np.asarray(spec.drift_y(t_mid, X, Y), dtype=float)
        c = np.asarray(spec.discount(t_mid, X, Y), dtype=float)
        gamma = 0.5 * np.atleast_2d(c)
        self.h = h
        self.op1 = _Tridiag(*_bands(axx, np.atleast_2d(mux), gamma, *sx[1:]), h)
        self.op2 = _Tridiag(*_bands(ayy, np.atleast_2d(muy).T, gamma.T, *sy[1:]), h)
        self.mixed_coeff = axy * np.outer(xg, yg)
        self._d1x = sx[0]
        self._d1y = sy[0]
        self._has_mixed = axy != 0.0

    def advance(self, w, explicit, corrected):
        """One stage from w: the explicit predictor (step ``explicit``), then
        the implicit corrections along x and along y; ``corrected`` adds the
        Craig-Sneyd update of the mixed term and a second pair."""
        a1w = self.op1.apply(w)
        a2w = self.op2.apply(w.T).T
        a0w = self.apply_mixed(w)
        y0 = w + explicit * (a0w + a1w + a2w)
        w = self._correct(y0, a1w, a2w)
        if corrected:
            w = self._correct(y0 + self.h * (self.apply_mixed(w) - a0w), a1w, a2w)
        return w

    def _correct(self, y, a1w, a2w):
        y1 = self.op1.solve(y - self.h * a1w)
        return self.op2.solve((y1 - self.h * a2w).T).T

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
    """Craig-Sneyd ADI solve of a Pde2Spec; returns V(x, y, t) at t = 0, T.

    Each step factors I - (dt/2) L along each axis once and uses that
    factorisation for the predictor and the corrector.
    """
    n, T, bps = grid.nodes_per_axis, spec.maturity, spec.breakpoints
    levels = grid.time_steps + len(bps) + 2  # the time grid's nodes and lengths
    _check_budget(_PLANES_2D * n * n + 2 * levels, "a 2-D solve")
    x0, y0 = spec.anchor
    half = [_half_width(diff_fn, lambda t, f=drift_fn: float(f(t, x0, y0)), T, bps)
            for diff_fn, drift_fn in ((spec.diffusion_xx, spec.drift_x),
                                      (spec.diffusion_yy, spec.drift_y))]
    xg = _log_grid(x0, half[0], n)
    yg = _log_grid(y0, half[1], n)
    sx, sy = ((d1, (0.5 * g * g * d2)[..., None], (g * d1)[..., None])
              for g, (d1, d2) in ((xg, _stencils(xg)), (yg, _stencils(yg))))

    times, steps = _time_grid(T, grid.time_steps, bps)
    restart = {T, *(b for b in bps if 0.0 < b < T)}
    values = np.empty((2, xg.size, yg.size))
    values[1] = _cell_average_2d(spec.terminal, xg, yg)

    w = values[1].copy()
    for k in range(times.size - 2, -1, -1):
        t0, dt = times[k], steps[k]
        h = 0.5 * dt  # theta dt with theta = 1/2, and the damped half step
        damped = times[k + 1] in restart
        # damped start: two implicit (Douglas theta=1) half steps
        stages = ((t0 + 0.75 * dt, h), (t0 + 0.25 * dt, h)) if damped else ((t0 + h, dt),)
        for t, explicit in stages:
            # built per stage and dropped after it, so no two stages' operators
            # and factorisations are alive at once
            w = _Ops2D(spec, xg, yg, sx, sy, t, h).advance(w, explicit, not damped)
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

    def scalar(fn, t):
        return float(fn(t, x0, y0))

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
