"""Finite-difference solvers for the full 2-D pricing equations and their
1-D reduced forms, plus the reduction-gap diagnostic.

A spec gives one coefficient set per evaluation, so a rate that several
coefficients share is read once.  The reduction divides the 2-D equation by
its y axis; which asset is y is the product description's choice
(``products.numeraire_on_y``).

Both solvers march Crank-Nicolson-style on log-spaced grids.  Stencils are
3-point non-uniform differences in the *original* coordinates, which are exact
on quadratics; linear terminal data therefore propagates exactly (up to
rounding) whenever the drift and discount rates coincide, which is what the
trivial-identity checks (forward payoffs, zero-strike conversions) rely on.

Time stepping:
  * one planner (``_plan``) gives both solvers their steps: each breakpoint
    segment takes steps in proportion to its physical length, and both
    march them in one shape (``_stages``),
  * coefficients are frozen per step at the interval midpoint (never touches
    the terminal time, where some discount coefficients are singular),
  * the 2-D solver marches in physical time; the 1-D solver marches each
    breakpoint segment in its own clock.  Where the diffusion a is a normal
    float it is variance time tau = int a dt (Wilmott, Howison & Dewynne
    1995, ch. 5): the equation has diffusion 1, drift b/a and discount c/a,
    frozen at t(tau), so a quotient whose only time dependence is a (the
    Vasicek products) has one operator for the whole solve.  Where a
    vanishes, is subnormal or leaves b/a, c/a infinite, it is physical time;
    where a = b = c = 0 the segment takes no steps,
  * the first interval after the terminal date and after every declared
    coefficient breakpoint is damped: two implicit half-steps (Rannacher),
  * the 2-D scheme is a Craig-Sneyd predictor-corrector with the mixed
    derivative treated explicitly, theta = 1/2,
  * each step factors I - (dt/2) L once per axis (``_Tridiag``), and the 1-D
    solver holds one factorisation while its operator and step repeat,
  * every 2-D plane is C-ordered and every operator runs along its rows: the
    y axis works on a transposed copy kept current, so no plane operation
    pays a strided sweep or a per-element Python loop,
  * both solvers keep only their t = 0 and terminal levels.

Terminal data is smoothed by cell averaging over a symmetric-in-z window per
node (Gauss-Legendre), which restores smooth convergence at payoff kinks while
leaving linear payoffs untouched.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import GridExtrapolationError, PricingError, ReductionError, TimeDomainError

_GL1_X, _GL1_W = np.polynomial.legendre.leggauss(7)
_GL2_X, _GL2_W = np.polynomial.legendre.leggauss(4)


_SPAN_SIGMAS = 6.0  # grid half-width in standard deviations, plus the drift
_HALF_WIDTH_POINTS = 256  # midpoints per breakpoint segment of the coefficient samples
_NORMAL = sys.float_info.min  # a smaller diffusion is no clock to march in

# Largest footprint a solve may allocate, checked from its GridSpec before
# any array is built: the _VECTORS_1D working vectors of a 1-D solve
# (``_words_1d``) or the _PLANES_2D working planes of a 2-D one, plus the
# frozen times of its steps.
_BUDGET_BYTES = 2 ** 30
_VECTORS_1D = 48
_STEP_WORDS = 10  # per step: its frozen times as float64s and list floats
_FIXED_WORDS_1D = 512  # array headers and LAPACK outputs, whatever the grid
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
    """U_t + (1/2) a(t) z^2 U_zz + b(t) z U_z - c(t) U = 0, with the
    diffusion, drift and discount (a, b, c) = coefficients(t)."""

    coefficients: Callable[[float], tuple]
    terminal: Callable[[np.ndarray], np.ndarray]
    maturity: float
    anchor: float = 1.0
    breakpoints: tuple = ()


@dataclass(frozen=True)
class Pde2Spec:
    """Full two-factor equation

    V_t + (1/2)[axx x^2 V_xx + 2 axy x y V_xy + ayy y^2 V_yy]
        + mux(t,x,y) x V_x + muy(t,x,y) y V_y - c(t,x,y) V = 0.

    ``diffusion(t)`` is (axx, axy, ayy), functions of t alone;
    ``rates(t, x, y)`` is (mux, muy, c), each a scalar or an array that
    broadcasts over (nx,1) x (1,ny) meshes, so drifts and discount may depend
    on the state.
    """

    diffusion: Callable[[float], tuple]
    rates: Callable[[float, object, object], tuple]
    terminal: Callable[[np.ndarray, np.ndarray], np.ndarray]
    maturity: float
    anchor: tuple[float, float] = (1.0, 1.0)
    breakpoints: tuple = ()


# ---------------------------------------------------------------------------
# shared plumbing


def _words_1d(nodes: int, steps: int) -> int:
    """8-byte words a 1-D solve of at most ``steps`` steps may hold at once:
    the working vectors, each step's frozen times and a fixed part that
    dominates the smallest grids."""
    return _VECTORS_1D * nodes + _STEP_WORDS * steps + _FIXED_WORDS_1D


def _stored(times, t: float) -> int:
    """The index of the stored time within 1e-12 of t; TimeDomainError at
    any other time."""
    for k, tk in enumerate(times):
        if abs(t - tk) <= 1e-12:
            return k
    raise TimeDomainError(f"t={t} is not a stored time; stored: {list(times)}")


def _check_budget(cells: int, what: str) -> None:
    """Refuse a grid of ``cells`` float64 values over the budget."""
    need = 8 * cells
    if need > _BUDGET_BYTES:
        raise ValueError(
            f"{what} needs about {need / 2**20:,.0f} MB, over the "
            f"{_BUDGET_BYTES >> 20} MB grid budget; use fewer nodes or steps")


def _cuts(maturity: float, breakpoints) -> list:
    """0, the breakpoints inside (0, maturity) and the maturity, sorted."""
    return sorted({0.0, maturity, *(b for b in breakpoints if 0.0 < b < maturity)})


def _span(var: float, shift: float) -> float:
    """Log-space grid half-width: _SPAN_SIGMAS standard deviations of the
    integrated diffusion ``var`` plus the integrated log drift ``shift``, at
    least 1e-2."""
    return max(_SPAN_SIGMAS * math.sqrt(max(var, 0.0)) + abs(shift), 1e-2)


def _sample(coefficients, lo: float, hi: float):
    """One pass over the _HALF_WIDTH_POINTS cell midpoints of [lo, hi] of
    ``coefficients(t) = (a, b, c)``: (var, shift, tau, dead).

    ``var`` and ``shift`` are the midpoint sums of a and b - a/2 over the
    segment.  ``tau`` is the cumulative variance at the cell edges when a
    is a normal float and b/a, c/a are finite at every midpoint, else None;
    ``dead`` says a = b = c = 0 at every midpoint.  Each coefficient is
    evaluated once per midpoint and no list of them is kept.  Midpoints on
    purpose: several discount coefficients are singular exactly at the
    terminal date and must never be sampled there.
    """
    h = (hi - lo) / _HALF_WIDTH_POINTS
    tau = np.empty(_HALF_WIDTH_POINTS + 1)
    tau[0] = 0.0
    sum_a = sum_m = 0.0
    scaled = dead = True
    normal, largest = _NORMAL, sys.float_info.max
    with np.errstate(all="ignore"):  # a numpy ratio may overflow to inf
        for i in range(_HALF_WIDTH_POINTS):
            a, b, c = coefficients(lo + (i + 0.5) * h)
            sum_a += a
            sum_m += b - 0.5 * a
            tau[i + 1] = sum_a
            if scaled:  # a NaN fails every comparison
                scaled = a >= normal and abs(b / a) <= largest and abs(c / a) <= largest
            if dead:
                dead = a == b == c == 0.0
    tau *= h
    return h * sum_a, h * sum_m, tau if scaled else None, dead


def _sampled(coefficients, maturity: float, breakpoints):
    """(half_width, segments) from one ``_sample`` pass per breakpoint
    segment of ``coefficients(t) = (a, b, c)``: the ``_span`` of the
    midpoint sums, and per segment from t = 0 up (lo, hi, tau, dead)."""
    var = shift = 0.0
    segments = []
    cuts = _cuts(maturity, breakpoints)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        v, m, tau, dead = _sample(coefficients, lo, hi)
        var += v
        shift += m
        segments.append((lo, hi, tau, dead))
    return _span(var, shift), segments


def _plan(segments, steps: int) -> list:
    """The time steps of a solve, the only source of them for both solvers.

    ``segments`` are (lo, hi, tau, dead) per breakpoint segment from t = 0
    up.  A segment with a tau (``_sample``'s cumulative variance) runs in
    variance time, where its equation has diffusion 1, drift b/a and
    discount c/a, and each step is frozen at t(tau), read off the
    piecewise-linear map of the sampled variance; a segment without runs in
    physical time.  The live segments share ``steps`` in proportion to their
    physical length, at least one each, and a dead segment takes none.  A
    segment's clock comes from ``linspace``, so its edges are its breakpoints
    and its steps are bit-equal.

    Returns, per live segment from t = 0 up, (scaled, h, top, mids): whether
    the clock is tau, half the step, the two frozen times of the damped top
    step and the frozen time of each other step from the bottom up (floats).
    """
    live = sum(hi - lo for lo, hi, _, dead in segments if not dead)
    plan = []
    for lo, hi, tau, dead in segments:
        if dead:
            continue
        n = max(1, round(steps * (hi - lo) / live))
        if tau is None:
            clock, to_t = np.linspace(lo, hi, n + 1), np.asarray
        else:
            edges = np.linspace(lo, hi, _HALF_WIDTH_POINTS + 1)
            clock = np.linspace(0.0, tau[-1], n + 1)
            to_t = lambda u, tau=tau, edges=edges: np.interp(u, tau, edges)
        du = (clock[-1] - clock[0]) / n
        plan.append((tau is not None, 0.5 * du,
                     to_t(clock[-2] + np.array([0.75, 0.25]) * du).tolist(),
                     to_t(clock[:-2] + 0.5 * du).tolist()))
    return plan


def _stages(plan):
    """(scaled, h, t, damped) for every stage of a ``_plan``, from the
    terminal date down: per segment the top step as two damped half steps
    (Rannacher), then one stage per remaining step."""
    for scaled, h, top, mids in reversed(plan):
        for t in top:
            yield scaled, h, t, True
        for t in reversed(mids):
            yield scaled, h, t, False


def _log_grid(anchor: float, half_width: float, nodes: int):
    """(z, s2, s1): ``nodes`` log-spaced points ``half_width`` either side of
    log(anchor) and their scaled stencils z^2 D2 / 2 and z D1; PricingError
    when a node or weight is not a finite float (a half-width past exp's
    range), before any solve is built on the grid."""
    if not anchor > 0.0:
        raise ValueError("grid anchor must be positive")
    with np.errstate(all="ignore"):
        z = np.exp(math.log(anchor) + np.linspace(-half_width, half_width, nodes))
        d1, d2 = _stencils(z)
        s2, s1 = 0.5 * z * z * d2, z * d1
    if not all(np.isfinite(a).all() for a in (z, s2, s1)):
        raise PricingError(
            f"a log grid of half-width {half_width:g} about {anchor:g} is not "
            "representable in double precision")
    return z, s2, s1


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
    """The 2-D cell average, accumulated one pair of Gauss points at a time
    so the payoff is only ever evaluated on one plane."""
    halfx = np.zeros_like(x)
    halfy = np.zeros_like(y)
    halfx[1:-1] = 0.5 * np.minimum(x[1:-1] - x[:-2], x[2:] - x[1:-1])
    halfy[1:-1] = 0.5 * np.minimum(y[1:-1] - y[:-2], y[2:] - y[1:-1])
    w = 0.5 * _GL2_W
    xs = x[:, None] + halfx[:, None] * _GL2_X[None, :]      # (nx, q)
    ys = y[None, :] + halfy[None, :] * _GL2_X[:, None]      # (q, ny)
    out = np.zeros((x.size, y.size))
    for a, wa in enumerate(w):
        for b, wb in enumerate(w):
            out += (wa * wb) * np.asarray(payoff(xs[:, a, None], ys[b]), dtype=float)
    return out


def _bands(a, b, c, s2, s1, out=None):
    """[lower, diag, upper] of L = a s2 + b s1 - c, for the scaled stencils
    s2 = z^2 D2 / 2 and s1 = z D1 and coefficients broadcast against them;
    written into out when given."""
    bands = np.multiply(b, s1, out=out)
    bands += a * s2
    bands[1] -= c
    return bands


def _windows(weights, v, out):
    """out[i] = weights[0, i] v[i-1] + weights[1, i] v[i] + weights[2, i]
    v[i+1], summed in that order, on the interior rows of a C-ordered plane:
    one einsum over a view of v's 3-row windows."""
    np.einsum("kij,ijk->ij", weights[:, 1:-1], sliding_window_view(v, 3, axis=0),
              out=out[1:-1])


def _apply(bands, v, out=None):
    """The tridiagonal matrix of ``bands`` times v, along axis 0.

    A plane, which must be C-ordered, takes its interior rows from
    ``_windows`` (the same products summed in the same order); a vector
    keeps three ufuncs, cheaper at its size than einsum's set-up.
    """
    lower, diag, upper = bands
    if v.ndim == 1:
        out = diag * v
        tmp = lower[1:] * v[:-1]
        out[1:] += tmp
        out[:-1] += np.multiply(upper[:-1], v[1:], out=tmp)
        return out
    out = np.empty(v.shape) if out is None else out
    _windows(np.asarray(bands), v, out)
    np.multiply(diag[0], v[0], out=out[0])
    out[0] += upper[0] * v[1]
    np.multiply(diag[-1], v[-1], out=out[-1])
    out[-1] += lower[-1] * v[-2]
    return out


_SINGULAR = "singular or non-finite tridiagonal system"


def _check_pivots(pivots) -> None:
    """Refuse a factorisation with a zero, infinite or NaN pivot, or inverse
    pivot: from a singular system or coefficients that are not finite, it
    would solve to NaNs or (an infinite diagonal) to a wrong answer."""
    if not (np.isfinite(pivots).all() and pivots.all()):
        raise np.linalg.LinAlgError(_SINGULAR)


def _factor_line(lower, diag, upper):
    """LAPACK ``gttrf`` factors of I - hL for one line, from the bands of
    hL, for ``gttrs`` to solve with; refused as ``_check_pivots`` refuses,
    but LAPACK's info already flags an exactly zero pivot, so only
    finiteness is tested.  The three bands of
    I - hL are temporaries, so LAPACK factors them in place (the flags are
    positional: f2py parses keywords slowly)."""
    *lu, info = dgttrf(-lower[1:], 1.0 - diag, -upper[:-1], 1, 1, 1)
    if info or not np.isfinite(lu[1]).all():  # lu[1]: U's diagonal
        raise np.linalg.LinAlgError(_SINGULAR)
    return lu


class _Tridiag:
    """I - h L factored for a tridiagonal L acting along axis 0 of a plane
    (a single line is ``_factor_line``'s).

    ``diag`` is (n, 1) when every line of an (n, m) plane sees the same
    matrix, or (n, m) for one matrix per line; the off-diagonals broadcast
    against it.  Two cases:

      * a matrix every line shares: a Thomas factorisation on Python floats,
        swept with one BLAS ``daxpy`` per row of the plane;
      * one matrix per line: a Thomas factorisation vectorised over the
        lines, written into ``work`` (a (3, n, m) array) when given, and
        swept with two ufuncs per row into one reused row buffer.

    A plane is swept along its rows, which must be contiguous (``daxpy``
    given a strided row returns an updated copy and leaves the row as it
    was), so ``solve`` works on a C-ordered plane.  Every factorisation
    serves any number of solves.
    """

    def __init__(self, lower, diag, upper, h: float, work=None):
        shape = np.broadcast_shapes(lower.shape, diag.shape, upper.shape)
        n = shape[0]
        if shape[1] == 1:
            lo, up = (-h * lower).ravel().tolist(), (-h * upper).ravel().tolist()
            di = (1.0 - h * diag).ravel().tolist()
            cp, inv = [0.0] * n, [0.0] * n
            try:
                inv[0] = 1.0 / di[0]
                cp[0] = up[0] * inv[0]
                for i in range(1, n):
                    inv[i] = 1.0 / (di[i] - lo[i] * cp[i - 1])
                    cp[i] = up[i] * inv[i]
            except ZeroDivisionError:
                raise np.linalg.LinAlgError("singular tridiagonal system") from None
            # solve: scale the rhs by inv, then add fwd[i] row[i-1] to
            # row[i] going down and back[i] row[i+1] to row[i] going up
            self._sweep = ([-a * b for a, b in zip(inv, lo)], [-c for c in cp],
                           np.array(inv)[:, None])
        else:
            # in place: lo becomes inv lo, up becomes cp and di becomes inv
            lo, up, di = np.empty((3, *shape)) if work is None else work
            np.multiply(lower, -h, out=lo)
            np.multiply(upper, -h, out=up)
            np.multiply(diag, -h, out=di)
            di += 1.0
            buf = np.empty(shape[1:])
            with np.errstate(all="ignore"):  # _check_pivots refuses a zero pivot
                np.divide(1.0, di[0], out=di[0])
                up[0] *= di[0]
                for lo_i, cp_prev, cp_i, inv_i in zip(lo[1:], up, up[1:], di[1:]):
                    np.subtract(inv_i, np.multiply(lo_i, cp_prev, out=buf), out=inv_i)
                    np.divide(1.0, inv_i, out=inv_i)
                    cp_i *= inv_i
                lo *= di
            self._sweep = (lo, up, di)
        _check_pivots(self._sweep[2])  # the inverse pivots

    def solve(self, rhs):
        """u with (I - h L) u = rhs; rhs may be overwritten."""
        rhs = np.ascontiguousarray(rhs)
        fwd, back, inv = self._sweep
        rhs *= inv
        rows = list(rhs)
        if isinstance(fwd, list):
            m = rhs.shape[1]  # positional arguments: f2py parses keywords slowly
            for a, prev, row in zip(fwd[1:], rows, rows[1:]):
                daxpy(prev, row, m, a)
            for a, prev, row in zip(back[-2::-1], rows[:0:-1], rows[-2::-1]):
                daxpy(prev, row, m, a)
            return rhs
        buf = np.empty(rhs.shape[1:])
        for f, prev, row in zip(fwd[1:], rows, rows[1:]):
            np.subtract(row, np.multiply(f, prev, out=buf), out=row)
        for c, prev, row in zip(back[-2::-1], rows[:0:-1], rows[-2::-1]):
            np.subtract(row, np.multiply(c, prev, out=buf), out=row)
        return rhs


# ---------------------------------------------------------------------------
# 1-D solver


class Solution1D:
    """The t = 0 and terminal levels of a 1-D solve; callable as U(z, t) at
    those two times only (to 1e-12), where every caller reads it."""

    def __init__(self, z, times, values):
        self.z = z
        self.times = times
        self.values = values

    def __call__(self, z: float, t: float) -> float:
        row = self.values[_stored(self.times, t)]
        if not (self.z[0] <= z <= self.z[-1]):
            raise GridExtrapolationError(
                f"z={z} outside the truncated grid [{self.z[0]:g}, {self.z[-1]:g}]")
        return float(np.interp(z, self.z, row))


def solve_1d(spec: Pde1Spec, grid: GridSpec) -> Solution1D:
    """Crank-Nicolson solve of a Pde1Spec; returns U(z, t) at t = 0, T.

    Each breakpoint segment marches in its own clock (``_plan``): in
    variance time tau = integral of a dt, where the equation is the heat
    equation in ln z plus the drift b/a and the discount c/a, when a is a
    normal float and those ratios are finite; in physical time otherwise; a
    segment where a = b = c = 0 takes no steps.

    Each stage evaluates the coefficients once, at a Python float time, and
    factors I - (du/2) L only when L's coefficients ((1, b/a, c/a) in tau,
    (a, b, c) in t) or the step du differ from the stage before.  A
    diffusion that varies in t with b = c = 0, as the Vasicek quotients
    have, is therefore one factorisation for the whole solve.  A new
    factorisation scales L by h = du/2 once: I - hL is factored from that,
    and I + hL is the same bands with 1 added to the diagonal.
    """
    n = grid.nodes_per_axis
    _check_budget(_words_1d(n, grid.time_steps + len(spec.breakpoints) + 1), "a 1-D solve")
    half, segments = _sampled(spec.coefficients, spec.maturity, spec.breakpoints)
    z, s2, s1 = _log_grid(spec.anchor, half, n)
    values = np.empty((2, z.size))
    values[1] = _cell_average_1d(spec.terminal, z)

    held = None
    u = values[1].copy()
    for scaled, h, t, damped in _stages(_plan(segments, grid.time_steps)):
        a, b, c = spec.coefficients(t)
        key = (1.0, b / a, c / a, h) if scaled else (a, b, c, h)
        if key != held:
            held = key
            hl = _bands(*key[:3], s2, s1)
            hl *= h
            lu = _factor_line(*hl)  # I - hL
            hl[1] += 1.0
            explicit = tuple(hl)  # I + hL
        u = dgttrs(*lu, u if damped else _apply(explicit, u), overwrite_b=1)[0]
    values[0] = u
    return Solution1D(z, np.array([0.0, spec.maturity]), values)


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
        plane = self.values[_stored(self.times, t)]
        if not (self.x[0] <= x <= self.x[-1]) or not (self.y[0] <= y <= self.y[-1]):
            raise GridExtrapolationError(
                f"({x:g}, {y:g}) outside the truncated grid")
        i = min(max(int(np.searchsorted(self.x, x) - 1), 0), self.x.size - 2)
        j = min(max(int(np.searchsorted(self.y, y) - 1), 0), self.y.size - 2)
        fx = (x - self.x[i]) / (self.x[i + 1] - self.x[i])
        fy = (y - self.y[j]) / (self.y[j + 1] - self.y[j])
        return float(
            (1 - fx) * (1 - fy) * plane[i, j]
            + fx * (1 - fy) * plane[i + 1, j]
            + (1 - fx) * fy * plane[i, j + 1]
            + fx * fy * plane[i + 1, j + 1])


class _CraigSneyd:
    """Craig-Sneyd stages (theta = 1/2) advancing the C-ordered (nx, ny)
    plane ``w`` in place.

    Every operator runs along axis 0 of a C-ordered plane, so the y axis
    works on ``wt``, a C-ordered copy of w transposed that every stage keeps
    current.  Holds the grid's scaled stencils z^2 D2 / 2 and z D1 per axis
    and the work planes every stage reuses.  A stage freezes the
    coefficients at one time and factors I - h L along each axis once for
    the predictor and the corrector, into storage the next stage overwrites,
    so no two stages' operators are alive at once.
    """

    def __init__(self, spec: Pde2Spec, x_axis, y_axis, w: np.ndarray):
        self.spec, self.xg, self.yg, self.w = spec, x_axis[0], y_axis[0], w
        self.sx, self.sy = ((s2[..., None], s1[..., None])
                            for _, s2, s1 in (x_axis, y_axis))
        self._wt = np.ascontiguousarray(w.T)
        self._a0, self._a1, self._y0, self._y, self._inner = (
            np.empty(w.shape) for _ in range(5))
        self._a2t = np.empty(self._wt.shape)
        self._inner_t = np.zeros(self._wt.shape)  # its boundary rows stay zero
        self._work = [None, None]  # per axis: the bands and the factors

    def stage(self, t_mid: float, h: float, explicit: float, corrected: bool):
        """Advance w: the explicit predictor (step ``explicit``), then the
        implicit corrections along x and along y; ``corrected`` adds the
        Craig-Sneyd update of the mixed term and a second pair, which
        without a mixed term would repeat the first."""
        spec, xg, yg, w, wt = self.spec, self.xg, self.yg, self.w, self._wt
        axx, axy, ayy = map(float, spec.diffusion(t_mid))
        mux, muy, c = (np.atleast_2d(np.asarray(v, dtype=float))
                       for v in spec.rates(t_mid, xg[:, None], yg[None, :]))
        gamma = 0.5 * c
        bands1, op1 = self._operator(0, axx, mux, gamma, h)
        bands2, op2 = self._operator(1, ayy, muy.T, gamma.T, h)
        # the mixed term axy x y D1x D1y, with axy x folded into the x
        # stencil and y into the y stencil
        kx = axy * self.sx[1] if axy != 0.0 else None

        a1 = _apply(bands1, w, out=self._a1)
        a2t = _apply(bands2, wt, out=self._a2t)
        y0 = self._y0
        if kx is None:
            np.copyto(y0, a1)
        else:
            a0 = self._apply_mixed(kx, out=self._a0)
            np.add(a0, a1, out=y0)
        y0 += a2t.T
        y0 *= explicit
        y0 += w
        a1 *= h  # both corrections subtract h A1 w and h A2 w
        a2t *= h
        self._correct(op1, op2, np.subtract(y0, a1, out=w), a2t)
        if corrected and kx is not None:
            y = self._apply_mixed(kx, out=self._y)
            y -= a0
            y *= h
            y += y0
            y -= a1
            self._correct(op1, op2, y, a2t)

    def _operator(self, axis, a, b, c, h):
        """(bands, _Tridiag) of L = a s2 + b s1 - c along ``axis``, written
        into arrays kept for the next stage: planes freed and allocated
        again at every stage are returned to the system and faulted back in
        (about 690k page faults in one 400 x 200 Vasicek solve)."""
        s2, s1 = (self.sx, self.sy)[axis]
        shape = np.broadcast_shapes(s1.shape, (1, *np.shape(b)), (1, *np.shape(c)))
        if self._work[axis] is None or self._work[axis].shape[1:] != shape:
            self._work[axis] = np.empty((2, *shape))
        bands, factors = self._work[axis]
        _bands(a, b, c, s2, s1, out=bands)
        return bands, _Tridiag(*bands, h, work=factors)

    def _correct(self, op1, op2, rhs, ha2t):
        """The implicit corrections of rhs = y - h A1 w along x, then along
        y, into w and wt; rhs is overwritten."""
        y1 = op1.solve(rhs)
        np.copyto(self._wt, y1.T)
        self._wt -= ha2t
        np.copyto(self.w, op2.solve(self._wt).T)  # solved in place: wt stays w.T

    def _apply_mixed(self, kx, out):
        """axy x y V_xy of the current w into out, zero on the boundary rows
        and columns: the y stencil on wt's rows, then the x stencil."""
        _windows(self.sy[1], self._wt, self._inner_t)
        np.copyto(self._inner, self._inner_t.T)
        _windows(kx, self._inner, out)
        out[[0, -1]] = 0.0
        return out


def solve_2d(spec: Pde2Spec, grid: GridSpec) -> Solution2D:
    """Craig-Sneyd ADI solve of a Pde2Spec; returns V(x, y, t) at t = 0, T.

    Every segment marches in physical time on ``_plan``'s steps.  Each
    stage factors I - (dt/2) L along each axis once and uses that
    factorisation for the predictor and the corrector.
    """
    n, T, bps = grid.nodes_per_axis, spec.maturity, spec.breakpoints
    _check_budget(_PLANES_2D * n * n + _STEP_WORDS * (grid.time_steps + len(bps) + 1),
                  "a 2-D solve")
    x0, y0 = spec.anchor
    # per axis, its diffusion and its drift at the anchor
    half = [_sampled(lambda t, i=i: (spec.diffusion(t)[2 * i],
                                     spec.rates(t, x0, y0)[i], 0.0), T, bps)[0]
            for i in (0, 1)]
    x_axis = _log_grid(x0, half[0], n)
    y_axis = _log_grid(y0, half[1], n)
    xg, yg = x_axis[0], y_axis[0]
    values = np.empty((2, xg.size, yg.size))
    values[1] = _cell_average_2d(spec.terminal, xg, yg)

    values[0] = values[1]
    scheme = _CraigSneyd(spec, x_axis, y_axis, values[0])
    cuts = _cuts(T, bps)
    plan = _plan([(lo, hi, None, False) for lo, hi in zip(cuts[:-1], cuts[1:])],
                 grid.time_steps)
    for _, h, t, damped in _stages(plan):
        # a damped stage is an implicit (Douglas theta = 1) half step
        scheme.stage(t, h, h if damped else 2.0 * h, not damped)
    return Solution2D(xg, yg, np.array([0.0, T]), values)


# ---------------------------------------------------------------------------
# reduction gap


def derive_reduced(spec2: Pde2Spec) -> Pde1Spec:
    """Quotient the 2-D equation by its y axis, the numeraire.

    With z = x/y and V = y U(z):
      U_t + (1/2)(axx - 2 axy + ayy) z^2 U_zz + (mux - muy) z U_z - (c - muy) U = 0,
      U(z, T) = terminal(z, 1).
    The drift and discount combinations must be state-independent for the
    reduction to hold; this is checked on a sample of states.  Each
    evaluation of the reduced coefficients reads ``diffusion`` and ``rates``
    once, at the anchor.
    """
    x0, y0 = spec2.anchor
    T = spec2.maturity
    payoff = lambda z: np.asarray(spec2.terminal(np.asarray(z), np.asarray(1.0)), dtype=float)

    # state-independence / homogeneity checks on a coarse state sample; a
    # probe at 4x an anchor near the float range overflows quietly, and the
    # solve refuses whatever is not finite
    with np.errstate(all="ignore"):
        scales = np.array([0.25, 1.0, 4.0])
        Xs = x0 * scales[:, None]
        Ys = y0 * scales[None, :]
        for t in (0.0, 0.5 * T, 0.999 * T):
            mux, muy, c = (np.asarray(v, dtype=float) for v in spec2.rates(t, Xs, Ys))
            for coef, label in ((mux, "drift"), (c, "discount")):
                arr = np.broadcast_to(coef - muy, (3, 3))
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

    def coefficients(t):
        axx, axy, ayy = spec2.diffusion(t)
        mux, muy, c = (float(v) for v in spec2.rates(t, x0, y0))
        return axx - 2.0 * axy + ayy, mux - muy, c - muy

    return Pde1Spec(coefficients=coefficients, terminal=payoff, maturity=T,
                    anchor=x0 / y0, breakpoints=spec2.breakpoints)


def reduction_gap(spec2: Pde2Spec, grid: GridSpec) -> float:
    """Max relative gap between the 2-D solve and the numeraire-quotient 1-D solve.

    At each probe (x, y) of the 3 x 3 grid within 5% of the anchor, compares
    V2d(x, y, 0) against y * U1d(x / y, 0): y is the numeraire.
    """
    full = solve_2d(spec2, grid)
    red = solve_1d(derive_reduced(spec2), grid)
    x0, y0 = spec2.anchor
    cs = (0.95, 1.0, 1.05)
    worst = 0.0
    for x, y in [(x0 * cx, y0 * cy) for cx in cs for cy in cs]:
        v2 = full(x, y, 0.0)
        v1 = y * red(x / y, 0.0)
        denom = max(abs(v2), abs(v1))
        gap = abs(v2 - v1) if denom < 1e-12 else abs(v2 - v1) / denom
        worst = max(worst, gap)
    return worst
