"""Finite-difference solvers for the full 2-D pricing equations and their
1-D reduced forms, plus the reduction-gap diagnostic.

A 2-D spec names its short rate once and gives each asset a constant yield,
so its drifts r - q and discount r are of no-arbitrage form.  The reduction
divides the 2-D equation by its y axis, and the rate drops out of the quotient
by construction; every homogeneous product description puts its numeraire
on y (``products.numeraire_on_y``).

Both solvers use log-spaced grids.  Stencils are 3-point non-uniform
differences in the *original* coordinates, which are exact on quadratics;
linear terminal data therefore propagates exactly (up to rounding) wherever
the 2-D drift and discount rates coincide and always in 1-D, which is what
the trivial-identity checks (forward payoffs, zero-strike conversions) rely on.

Each log grid is centred on the anchor and spans six standard deviations of
its axis' integrated diffusion plus the axis' log drift: in 1-D the summed
drift, in 2-D the drift along the characteristic marched from the anchor,
where the state-dependent rate is read (``_characteristic_spans``).  A 2-D
grid gives its widest axis ``nodes_per_axis`` nodes and the other the same
log spacing, so a bond axis a few standard deviations wide takes a few dozen.

The reduced problem is derived once (``derive_reduced``): a ``Pde1Spec``
holds the integrals of the quotient's diffusion, drift and discount, which
with its terminal are all its t = 0 solution depends on.  One integrator,
``integral``, takes every time integral of a coefficient in the package.

Time stepping:
  * the 1-D equation is the heat equation in variance time once its drift
    and discount are taken out exactly (``solve_1d``): (I - hL)/2 is factored
    once and every step is one LAPACK solve with it, since
    (I - hL)^-1 (I + hL) = 2 (I - hL)^-1 - I,
  * the 2-D solver marches in physical time on ``_plan``'s steps: each
    breakpoint segment takes steps in proportion to its length, with the
    coefficients frozen at each step's midpoint (never the terminal time,
    where some discount coefficients are singular),
  * the first step after the terminal date, and in 2-D after every
    breakpoint, is damped: two implicit half-steps (Rannacher),
  * the 1-D march is Crank-Nicolson; the 2-D scheme is a Craig-Sneyd
    predictor-corrector, mixed derivative explicit, theta = 1/2, that
    factors I - (dt/2) L along an axis only when its coefficients change
    (``_Tridiag``): a matrix its lines share by a Thomas sweep, a matrix per
    line (the Vasicek x axis) by one LAPACK factorisation of all the lines,
  * every 2-D plane is C-ordered and every operator runs along its rows: the
    y axis works on a transposed copy kept current, so no plane operation
    pays a strided sweep or a per-element Python loop,
  * each solver marches in place on its cell-averaged terminal and returns
    its t = 0 level only.

Terminal data is smoothed by cell averaging over a symmetric-in-z window per
node (Gauss-Legendre), which restores smooth convergence at payoff kinks while
leaving linear payoffs untouched.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import (
    DegenerateCovarianceError,
    GridExtrapolationError,
    PricingError,
    ReductionError,
)
from .model import require_integers

_GL1_X, _GL1_W = np.polynomial.legendre.leggauss(7)
_GL2_X, _GL2_W = np.polynomial.legendre.leggauss(4)


_SPAN_SIGMAS = 6.0  # grid half-width in standard deviations, plus the drift
_HALF_WIDTH_POINTS = 256  # midpoints per breakpoint segment of the 2-D drift characteristic
_MIN_NODES = 16  # fewest nodes on any axis
# the drift characteristic reads r at its state and one _PROBE_LOG up each
# log axis: rows ln x and ln y offsets of the three states
_PROBE_LOG = 2.0 ** -20
_PROBE = np.array([[0.0, _PROBE_LOG, 0.0], [0.0, 0.0, _PROBE_LOG]])

# Largest footprint one solve may allocate (``verify.run_suite`` runs up to
# one solve per worker at a time), checked from its GridSpec before any array
# is built: the _VECTORS_1D working vectors of a 1-D solve (``_words_1d``) or
# the _PLANES_2D working nx x ny planes of a 2-D one, plus _STEP_WORDS per step.
_BUDGET_BYTES = 2 ** 30
_VECTORS_1D = 48
_STEP_WORDS = 10  # per step: its frozen times as float64s and list floats
_FIXED_WORDS_1D = 512  # array headers and LAPACK outputs, whatever the grid
_PLANES_2D = 40


@dataclass(frozen=True)
class GridSpec:
    """``nodes_per_axis`` is the node count of a 1-D solve's axis and of a
    2-D solve's widest axis (the other takes the same log spacing);
    ``time_steps`` are equal steps of variance time in 1-D and are shared
    among the breakpoint segments in 2-D."""

    nodes_per_axis: int = 400
    time_steps: int = 200

    def __post_init__(self):
        require_integers(self)
        if self.nodes_per_axis < _MIN_NODES:
            raise ValueError(f"nodes_per_axis must be at least {_MIN_NODES}")
        if self.time_steps < 8:
            raise ValueError("time_steps must be at least 8")


@dataclass(frozen=True)
class Pde1Spec:
    """U_t + (1/2) a(t) z^2 U_zz + b(t) z U_z - c(t) U = 0 on [0, T], held
    as what its t = 0 solution depends on: ``variance``, ``drift`` and
    ``discount`` are the integrals of a, b and c over [0, T], and
    ``terminal`` is U(z, T)."""

    variance: float
    drift: float
    discount: float
    terminal: Callable[[np.ndarray], np.ndarray]
    anchor: float = 1.0


@dataclass(frozen=True)
class Pde2Spec:
    """Full two-factor equation

    V_t + (1/2)[axx x^2 V_xx + 2 axy x y V_xy + ayy y^2 V_yy]
        + (r - q_x) x V_x + (r - q_y) y V_y - r V = 0.

    ``diffusion(t)`` is (axx, axy, ayy), functions of t alone;
    ``rate(t, x, y)`` is the short rate r, a scalar or an array that
    broadcasts over (nx,1) x (1,ny) meshes, so it may depend on the state;
    ``yields`` is the constant (q_x, q_y).
    """

    diffusion: Callable[[float], tuple]
    rate: Callable[[float, object, object], object]
    terminal: Callable[[np.ndarray, np.ndarray], np.ndarray]
    maturity: float
    yields: tuple[float, float] = (0.0, 0.0)
    anchor: tuple[float, float] = (1.0, 1.0)
    breakpoints: tuple = ()


# ---------------------------------------------------------------------------
# shared plumbing


def _words_1d(nodes: int, steps: int) -> int:
    """8-byte words charged to a 1-D solve of ``steps`` steps: the working
    vectors and a fixed part that dominates the smallest grids, plus the
    _STEP_WORDS per step a 2-D solve holds for its frozen times.  The 1-D
    march holds nothing per step; the step term refuses, before any work, a
    step count that a 2-D solve on the same GridSpec is refused for too."""
    return _VECTORS_1D * nodes + _STEP_WORDS * steps + _FIXED_WORDS_1D


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
    least 0.05."""
    return max(_SPAN_SIGMAS * math.sqrt(max(var, 0.0)) + abs(shift), 0.05)


def integral(fn: Callable[[float], float], maturity: float, breakpoints=()) -> float:
    """The integral of fn over [0, maturity], adaptive (``quad``) on each
    breakpoint segment (``_cuts``), so no jump is integrated across.
    Raises PricingError at the first value of fn that is not finite, and
    OverflowError, naming t, where fn's own arithmetic overflows."""
    def checked(t):
        try:
            value = fn(t)
        except OverflowError:
            raise OverflowError(f"integrand is not finite at t = {t}: it overflows") from None
        if not math.isfinite(value):
            raise PricingError(f"integrand is not finite at t = {t}: {value}")
        return value

    cuts = _cuts(maturity, breakpoints)
    return sum(quad(checked, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(cuts[:-1], cuts[1:]))


def _plan(cuts, steps: int) -> list:
    """The time steps of a 2-D solve.

    ``cuts`` are the edges of the breakpoint segments (``_cuts``).  The
    segments share ``steps`` in proportion to their length, at least one
    each.  A segment's clock comes from ``linspace``, so its edges are its
    breakpoints and its steps are bit-equal.

    Returns, per segment from t = 0 up, (h, top, mids): half the step, the
    two frozen times of the damped top step and the frozen time of each
    other step from the bottom up (floats).
    """
    plan = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n = max(1, round(steps * (hi - lo) / (cuts[-1] - cuts[0])))
        clock = np.linspace(lo, hi, n + 1)
        dt = (hi - lo) / n
        plan.append((0.5 * dt, (clock[-2] + np.array([0.75, 0.25]) * dt).tolist(),
                     (clock[:-2] + 0.5 * dt).tolist()))
    return plan


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


def _windows(weights, windows, out):
    """out[i] = weights[0, i] v[i-1] + weights[1, i] v[i] + weights[2, i]
    v[i+1], summed in that order, on the interior rows of a C-ordered plane
    v: one einsum over ``windows``, v's 3-row ``sliding_window_view``."""
    np.einsum("kij,ijk->ij", weights[:, 1:-1], windows, out=out[1:-1])


def _apply(bands, v, windows, out):
    """The tridiagonal matrix of ``bands`` times the C-ordered plane v, along
    axis 0, into out: the interior rows from ``_windows`` on v's window view
    ``windows``, the two boundary rows by hand."""
    lower, diag, upper = bands
    _windows(np.asarray(bands), windows, out)
    np.multiply(diag[0], v[0], out=out[0])
    out[0] += upper[0] * v[1]
    np.multiply(diag[-1], v[-1], out=out[-1])
    out[-1] += lower[-1] * v[-2]
    return out


_SINGULAR = "singular or non-finite tridiagonal system"


def _factor_line(lower, diag, upper):
    """LAPACK ``gttrf`` factors of I - hL for one line, from the bands of
    hL, for ``gttrs`` to solve with.  LinAlgError at a zero pivot (LAPACK's
    info) or a pivot that is not finite: from a singular system or
    coefficients that are not finite, it would solve to NaNs or (an infinite
    diagonal) to a wrong answer.  The three bands of I - hL are temporaries,
    so LAPACK factors them in place (the flags are positional: f2py parses
    keywords slowly)."""
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
        swept with one BLAS ``daxpy`` per row of a C-ordered copy of the
        plane (``daxpy`` given a strided row updates a copy of it), each
        sweep's loop run in C by ``map`` over the rows' views;
      * one matrix per line: the m lines laid end to end as the diagonal
        blocks of one tridiagonal system, no band coupling two blocks,
        factored by one ``_factor_line`` and solved by one LAPACK ``gttrs``
        on the plane's transpose, C-ordered, whose row j is line j.

    Every factorisation serves any number of solves.
    """

    def __init__(self, lower, diag, upper, h: float):
        shape = np.broadcast_shapes(lower.shape, diag.shape, upper.shape)
        n = shape[0]
        self._lu = None
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
                raise np.linalg.LinAlgError(_SINGULAR) from None
            if not (np.isfinite(inv).all() and all(inv)):  # as _factor_line refuses
                raise np.linalg.LinAlgError(_SINGULAR)
            # solve: scale the rhs by inv, then add each row times fwd to the
            # next going down and times back to the one before going up
            self._sweep = ([-a * b for a, b in zip(inv[1:], lo[1:])],
                           [-c for c in cp[-2::-1]], np.array(inv)[:, None])
        else:
            lo, di, up = (np.ascontiguousarray(np.broadcast_to(h * b, shape).T).ravel()
                          for b in (lower, diag, upper))
            lo[::n] = up[n - 1::n] = 0.0  # no band couples two lines
            self._lu = _factor_line(lo, di, up)

    def solve(self, rhs, rows=None):
        """u with (I - h L) u = rhs; rhs may be overwritten.  ``rows``, a
        C-ordered rhs's row views built once by the caller, spare a shared
        matrix's sweep building them; any other rhs is swept as a C-ordered
        copy, on the copy's own rows."""
        if self._lu is not None:
            lines = np.ascontiguousarray(rhs.T)
            return dgttrs(*self._lu, lines.ravel(), overwrite_b=1)[0].reshape(lines.shape).T
        plane = np.ascontiguousarray(rhs)
        fwd, back, inv = self._sweep
        plane *= inv
        rows = list(plane) if rows is None or plane is not rhs else rows
        m = repeat(plane.shape[1])  # positional arguments: f2py parses keywords slowly
        deque(map(daxpy, rows, rows[1:], m, fwd), maxlen=0)  # no bytecode per row
        deque(map(daxpy, rows[:0:-1], rows[-2::-1], m, back), maxlen=0)
        return plane


# ---------------------------------------------------------------------------
# 1-D solver


@dataclass
class Solution1D:
    """The t = 0 level of a 1-D solve, callable as U(z)."""

    z: np.ndarray
    values: np.ndarray

    def __call__(self, z: float) -> float:
        if not (self.z[0] <= z <= self.z[-1]):
            raise GridExtrapolationError(
                f"z={z} outside the truncated grid [{self.z[0]:g}, {self.z[-1]:g}]")
        return float(np.interp(z, self.z, self.values))


def solve_1d(spec: Pde1Spec, grid: GridSpec) -> Solution1D:
    """Solve a Pde1Spec exactly in its drift and discount; returns U(z) at
    t = 0.

    With var, B and C the spec's integrated variance, drift and discount,
    U(z, 0) = e^{-C} W(z, var), where W solves the heat equation
    W_tau = (1/2) z^2 W_zz in variance time tau = integral of a dt from
    W(z, 0) = terminal(z e^B) (Wilmott, Howison & Dewynne 1995, ch. 5).  W
    takes ``time_steps`` equal steps in tau, Crank-Nicolson after a damped
    top step of two implicit half steps (Rannacher).  (I - hL)/2 is
    factored once, so one LAPACK ``gttrs`` returns 2 (I - hL)^-1 w: a
    Crank-Nicolson step is that less w, since (I - hL)^-1 (I + hL) =
    2 (I - hL)^-1 - I, and the damped step a quarter of two solves.  Where
    var is zero it takes none.
    The grid spans W's own log drift, -var/2: B only moves the point where
    the terminal is read.  DegenerateCovarianceError when var is negative or
    not finite; PricingError when B or C is not finite, when e^B is not a
    positive normal float or e^{-C} not a finite one, or when the solution
    is not finite.
    """
    n, steps = grid.nodes_per_axis, grid.time_steps
    _check_budget(_words_1d(n, steps), "a 1-D solve")
    var, drift, discount = spec.variance, spec.drift, spec.discount
    if not 0.0 <= var < math.inf:
        raise DegenerateCovarianceError(
            f"reduced variance must be finite and non-negative: {var:.3e}")
    with np.errstate(all="ignore"):  # refused below
        factors = np.exp([drift, -discount])
    if not (np.isfinite([drift, discount, *factors]).all()
            and factors[0] >= np.finfo(float).tiny):
        raise PricingError(
            f"the integrated drift {drift:g} and discount {discount:g} do not "
            "give double precision factors e^B (positive and normal) and e^-C")
    growth, df = factors.tolist()
    z, s2, _ = _log_grid(spec.anchor, _span(var, 0.5 * var), n)
    with np.errstate(all="ignore"):  # a solution that is not finite is refused
        w = _cell_average_1d(lambda zeta: spec.terminal(growth * zeta), z)
        if var > 0.0:
            lu = _factor_line(*(s2 * (0.5 * (var / steps))))  # I - hL
            for band in lu[1:4]:  # halving U's bands factors (I - hL)/2, exactly
                band *= 0.5
            w = 0.25 * dgttrs(*lu, dgttrs(*lu, w)[0])[0]
            for _ in range(steps - 1):
                x = dgttrs(*lu, w)[0]
                w = np.subtract(x, w, out=x)
        u = df * w
    if not np.isfinite(u).all():
        raise PricingError("the 1-D solution is not finite in double precision")
    return Solution1D(z, u)


# ---------------------------------------------------------------------------
# 2-D solver


@dataclass
class Solution2D:
    """The t = 0 plane of a 2-D solve, callable as V(x, y) (bilinear)."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray

    def __call__(self, x: float, y: float) -> float:
        if not (self.x[0] <= x <= self.x[-1]) or not (self.y[0] <= y <= self.y[-1]):
            raise GridExtrapolationError(
                f"({x:g}, {y:g}) outside the truncated grid")
        i = min(max(int(np.searchsorted(self.x, x) - 1), 0), self.x.size - 2)
        j = min(max(int(np.searchsorted(self.y, y) - 1), 0), self.y.size - 2)
        fx = (x - self.x[i]) / (self.x[i + 1] - self.x[i])
        fy = (y - self.y[j]) / (self.y[j + 1] - self.y[j])
        return float(
            (1 - fx) * (1 - fy) * self.values[i, j]
            + fx * (1 - fy) * self.values[i + 1, j]
            + (1 - fx) * fy * self.values[i, j + 1]
            + fx * fy * self.values[i + 1, j + 1])


class _CraigSneyd:
    """Craig-Sneyd stages (theta = 1/2) advancing the C-ordered (nx, ny)
    plane ``w`` in place.

    Every operator runs along axis 0 of a C-ordered plane, so the y axis
    works on ``wt``, a C-ordered copy of w transposed that every stage keeps
    current.  Holds the grid's scaled stencils z^2 D2 / 2 and z D1 per axis,
    the work planes every stage reuses and, built once, the 3-row window
    views of the planes the stencils read and the row views of the planes
    the sweeps solve in.  A stage freezes the coefficients at one time, and
    its predictor and corrector share one I - h L per axis, factored again
    only when those coefficients change (``_operator``).
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
        self._win, self._win_t, self._win_inner = (  # views follow their data
            sliding_window_view(p, 3, axis=0) for p in (w, self._wt, self._inner))
        self._rows, self._rows_y, self._rows_t = map(list, (w, self._y, self._wt))
        self._held = [None, None]  # per axis: (a, h), (b, c), bands, _Tridiag

    def stage(self, t_mid: float, h: float, explicit: float, corrected: bool):
        """Advance w: the explicit predictor (step ``explicit``), then the
        implicit corrections along x and along y; ``corrected`` adds the
        Craig-Sneyd update of the mixed term and a second pair, which
        without a mixed term would repeat the first."""
        spec, xg, yg, w, wt = self.spec, self.xg, self.yg, self.w, self._wt
        axx, axy, ayy = map(float, spec.diffusion(t_mid))
        r = np.atleast_2d(np.asarray(spec.rate(t_mid, xg[:, None], yg[None, :]),
                                     dtype=float))
        qx, qy = spec.yields
        bands1, op1 = self._operator(0, axx, r - qx, 0.5 * r, h)
        bands2, op2 = self._operator(1, ayy, (r - qy).T, 0.5 * r.T, h)
        # the mixed term axy x y D1x D1y, with axy x folded into the x
        # stencil and y into the y stencil
        kx = axy * self.sx[1] if axy != 0.0 else None

        a1 = _apply(bands1, w, self._win, self._a1)
        a2t = _apply(bands2, wt, self._win_t, self._a2t)
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
        self._correct(op1, op2, np.subtract(y0, a1, out=w), self._rows, a2t)
        if corrected and kx is not None:
            y = self._apply_mixed(kx, out=self._y)
            y -= a0
            y *= h
            y += y0
            y -= a1
            self._correct(op1, op2, y, self._rows_y, a2t)
        np.copyto(w, wt.T)

    def _operator(self, axis, a, b, c, h):
        """(bands, _Tridiag) of L = a s2 + b s1 - c along ``axis``, held per
        axis and built again only when a stage's (a, b, c, h) differ, exactly,
        from those they were built from: once per breakpoint segment for
        constant coefficients, at every stage for a rate that moves with t.
        A build writes the bands into the held array: planes freed and
        allocated again at every stage are returned to the system and faulted
        back in (about 690k page faults in one 400 x 200 Vasicek solve)."""
        held = self._held[axis]
        if held and held[0] == (a, h) and all(map(np.array_equal, held[1], (b, c))):
            return held[2:]
        s2, s1 = (self.sx, self.sy)[axis]
        shape = np.broadcast_shapes(s1.shape, (1, *np.shape(b)), (1, *np.shape(c)))
        bands = held[2] if held and held[2].shape == shape else np.empty(shape)
        np.multiply(b, s1, out=bands)
        bands += a * s2
        bands[1] -= c
        self._held[axis] = (a, h), (b, c), bands, _Tridiag(*bands, h)
        return self._held[axis][2:]

    def _correct(self, op1, op2, rhs, rows, ha2t):
        """The implicit corrections of rhs = y - h A1 w along x, then along
        y, into wt (``stage`` copies it into w after its last correction),
        with the stage's held operators; rhs, viewed as ``rows``, is overwritten."""
        y1 = op1.solve(rhs, rows)
        np.subtract(y1.T, ha2t, out=self._wt)
        wt = op2.solve(self._wt, self._rows_t)
        if wt is not self._wt:  # a per-line solve returns a new array
            np.copyto(self._wt, wt)

    def _apply_mixed(self, kx, out):
        """axy x y V_xy of the current w into out, zero on the boundary rows
        and columns: the y stencil on wt's rows, then the x stencil."""
        _windows(self.sy[1], self._win_t, self._inner_t)
        np.copyto(self._inner, self._inner_t.T)
        _windows(kx, self._win_inner, out)
        out[[0, -1]] = 0.0
        return out


def _characteristic_spans(spec: Pde2Spec) -> tuple:
    """(half_x, half_y): per axis the ``_span`` of its integrated diffusion
    and of its log drift along the drift characteristic from the anchor,

        d ln x = (r(t, x, y) - q_x - axx/2) dt,
        d ln y = (r(t, x, y) - q_y - ayy/2) dt,

    marched over the _HALF_WIDTH_POINTS midpoints of each breakpoint
    segment.  Each step is implicit in the rate: linearised about its start
    with r's difference quotients in ln x and ln y, so a rate affine in the
    log state (a bond's own rate is) takes a backward Euler step, stable
    where the rate pulls the state to maturity as 1/(T - t).  PricingError
    when a half-width is not a finite float.
    """
    if not all(a > 0.0 for a in spec.anchor):
        raise ValueError("grid anchor must be positive")
    (qx, qy), (x, y) = spec.yields, map(math.log, spec.anchor)
    x0, y0 = x, y
    var_x = var_y = 0.0
    cuts = _cuts(spec.maturity, spec.breakpoints)
    with np.errstate(all="ignore"):  # a runaway march is refused below
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            h = (hi - lo) / _HALF_WIDTH_POINTS
            for i in range(_HALF_WIDTH_POINTS):
                t = lo + (i + 0.5) * h
                axx, _, ayy = spec.diffusion(t)
                xs, ys = np.exp(np.array([x, y])[:, None] + _PROBE)
                r, rx, ry = np.broadcast_to(
                    np.asarray(spec.rate(t, xs, ys), dtype=float), 3).tolist()
                fx, fy = r - qx - 0.5 * axx, r - qy - 0.5 * ayy
                gx, gy = (rx - r) / _PROBE_LOG, (ry - r) / _PROBE_LOG
                # (I - h J) du = h f with J = (1, 1)^T (gx, gy): rank one
                both = h * h * (gx * fx + gy * fy) / (1.0 - h * (gx + gy))
                x += h * fx + both
                y += h * fy + both
                var_x += h * axx
                var_y += h * ayy
    half = _span(var_x, x - x0), _span(var_y, y - y0)
    if not all(map(math.isfinite, half)):
        raise PricingError(
            f"a log grid of half-widths {half[0]:g} and {half[1]:g} is not "
            "representable in double precision")
    return half


def solve_2d(spec: Pde2Spec, grid: GridSpec) -> Solution2D:
    """Craig-Sneyd ADI solve of a Pde2Spec; returns V(x, y) at t = 0.

    Each axis spans its own ``_characteristic_spans`` half-width, and both
    share one log spacing: the wider axis takes n = ``grid.nodes_per_axis``
    nodes and the other its share of the n - 1 intervals, rounded, plus
    one, at least _MIN_NODES.  The memory budget is charged for those two
    counts before any plane is allocated.  Every segment marches in
    physical time on ``_plan``'s steps.  A stage factors I - (dt/2) L along
    an axis only when the axis' frozen coefficients differ from the last
    stage's, and its predictor and corrector share that factorisation.
    """
    n, bps = grid.nodes_per_axis, spec.breakpoints
    half = _characteristic_spans(spec)
    nx, ny = (max(_MIN_NODES, 1 + round((n - 1) * w / max(half))) for w in half)
    _check_budget(_PLANES_2D * nx * ny + _STEP_WORDS * (grid.time_steps + len(bps) + 1),
                  "a 2-D solve")
    x_axis = _log_grid(spec.anchor[0], half[0], nx)
    y_axis = _log_grid(spec.anchor[1], half[1], ny)
    xg, yg = x_axis[0], y_axis[0]
    w = _cell_average_2d(spec.terminal, xg, yg)
    scheme = _CraigSneyd(spec, x_axis, y_axis, w)
    for h, top, mids in reversed(_plan(_cuts(spec.maturity, bps), grid.time_steps)):
        for t in top:  # the damped top step: implicit (Douglas theta = 1) half steps
            scheme.stage(t, h, h, False)
        for t in reversed(mids):
            scheme.stage(t, h, 2.0 * h, True)
    return Solution2D(xg, yg, w)


# ---------------------------------------------------------------------------
# reduction gap


def derive_reduced(spec2: Pde2Spec) -> Pde1Spec:
    """Quotient the 2-D equation by its y axis, the numeraire.

    With z = x/y and V = y U(z):
      U_t + (1/2)(axx - 2 axy + ayy) z^2 U_zz + (q_y - q_x) z U_z - q_y U = 0,
      U(z, T) = terminal(z, 1).
    The short rate drops out by Euler's identity, r (x V_x + y V_y - V) = 0
    for every V homogeneous of degree one and every r(t, x, y), so only
    ``diffusion`` is read, once per ``integral`` node of its variance; the
    yields are constants, so the drift and discount integrate to
    (q_y - q_x) T and q_y T.  ReductionError when the terminal fails a
    homogeneity probe on three ratios; PricingError at a variance integrand
    that is not finite.
    """
    x0, y0 = spec2.anchor
    qx, qy = spec2.yields
    payoff = lambda z: np.asarray(spec2.terminal(np.asarray(z), np.asarray(1.0)), dtype=float)

    # a probe about an anchor near the float range overflows quietly, and the
    # solve refuses whatever is not finite
    with np.errstate(all="ignore"):
        a = 1.7
        zs = (x0 / y0) * np.array([0.5, 1.0, 2.0])
        t2 = np.asarray(spec2.terminal(a * zs, np.full_like(zs, a)), dtype=float)
        t1v = np.asarray(payoff(zs), dtype=float)
        if np.max(np.abs(t2 - a * t1v)) > 1e-9 * (1.0 + float(np.max(np.abs(t2)))):
            raise ReductionError("terminal payoff is not homogeneous of degree one")

    def variance(t):
        axx, axy, ayy = spec2.diffusion(t)
        return axx - 2.0 * axy + ayy

    T = spec2.maturity
    return Pde1Spec(variance=integral(variance, T, spec2.breakpoints),
                    drift=(qy - qx) * T, discount=qy * T, terminal=payoff,
                    anchor=x0 / y0)


def reduction_gap(spec2: Pde2Spec, grid: GridSpec) -> float:
    """Max relative gap between the 2-D solve and the numeraire-quotient 1-D solve.

    At each probe (x, y) of the 3 x 3 grid within 5% of the anchor, compares
    V2d(x, y) against y * U1d(x / y) at t = 0: y is the numeraire.
    """
    full = solve_2d(spec2, grid)
    red = solve_1d(derive_reduced(spec2), grid)
    x0, y0 = spec2.anchor
    cs = (0.95, 1.0, 1.05)
    worst = 0.0
    for x, y in [(x0 * cx, y0 * cy) for cx in cs for cy in cs]:
        v2 = full(x, y)
        v1 = y * red(x / y)
        denom = max(abs(v2), abs(v1))
        gap = abs(v2 - v1) if denom < 1e-12 else abs(v2 - v1) / denom
        worst = max(worst, gap)
    return worst
