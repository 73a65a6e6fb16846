"""Finite-difference solvers for the full 2-D pricing equations and their
1-D reduced forms, plus the reduction-gap diagnostic.

A 2-D spec names its short rate once and gives each asset a constant yield,
so its drifts r - q and discount r are of no-arbitrage form.  The reduction
divides the 2-D equation by its y axis, and the rate drops out of the quotient
by construction; which asset is y is the product description's choice
(``products.numeraire_on_y``).

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

Time stepping:
  * the 1-D equation is the heat equation in variance time once its drift
    and discount are taken out exactly (``solve_1d``): one operator and one
    factorisation serve every step, and breakpoints only cut its integrals,
  * the 2-D solver marches in physical time on ``_plan``'s steps: each
    breakpoint segment takes steps in proportion to its length, with the
    coefficients frozen at each step's midpoint (never the terminal time,
    where some discount coefficients are singular),
  * the first step after the terminal date, and in 2-D after every
    breakpoint, is damped: two implicit half-steps (Rannacher),
  * the 1-D march is Crank-Nicolson; the 2-D scheme is a Craig-Sneyd
    predictor-corrector with the mixed derivative treated explicitly,
    theta = 1/2, and each step factors I - (dt/2) L once per axis
    (``_Tridiag``),
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
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import GridExtrapolationError, PricingError, ReductionError
from .model import require_integers

_GL1_X, _GL1_W = np.polynomial.legendre.leggauss(7)
_GL2_X, _GL2_W = np.polynomial.legendre.leggauss(4)


_SPAN_SIGMAS = 6.0  # grid half-width in standard deviations, plus the drift
_HALF_WIDTH_POINTS = 256  # midpoints per breakpoint segment of the coefficient samples
_MIN_NODES = 16  # fewest nodes on any axis
# the drift characteristic reads r at its state and one _PROBE_LOG up each
# log axis: rows ln x and ln y offsets of the three states
_PROBE_LOG = 2.0 ** -20
_PROBE = np.array([[0.0, _PROBE_LOG, 0.0], [0.0, 0.0, _PROBE_LOG]])

# Largest footprint a solve may allocate, checked from its GridSpec before
# any array is built: the _VECTORS_1D working vectors of a 1-D solve
# (``_words_1d``) or the _PLANES_2D working nx x ny planes of a 2-D one,
# plus _STEP_WORDS per step.
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
    least 1e-2."""
    return max(_SPAN_SIGMAS * math.sqrt(max(var, 0.0)) + abs(shift), 1e-2)


def _integrals(coefficients, maturity: float, breakpoints) -> tuple:
    """(var, drift, discount): the integrals over [0, maturity] of
    ``coefficients(t) = (a, b, c)``, as midpoint sums over the
    _HALF_WIDTH_POINTS cells of each breakpoint segment, one call per
    midpoint.  Midpoints on purpose: several discount coefficients are
    singular exactly at the terminal date and must never be sampled there."""
    var = drift = discount = 0.0
    cuts = _cuts(maturity, breakpoints)
    with np.errstate(all="ignore"):  # the solve refuses a sum that is not finite
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            h = (hi - lo) / _HALF_WIDTH_POINTS
            sum_a = sum_b = sum_c = 0.0
            for i in range(_HALF_WIDTH_POINTS):
                a, b, c = coefficients(lo + (i + 0.5) * h)
                sum_a += a
                sum_b += b
                sum_c += c
            var += h * sum_a
            drift += h * sum_b
            discount += h * sum_c
    return float(var), float(drift), float(discount)


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

    With var, B and C the integrals of a, b and c over [0, T] (``_integrals``),
    U(z, 0) = e^{-C} W(z, var), where W solves the heat equation
    W_tau = (1/2) z^2 W_zz in variance time tau = integral of a dt from
    W(z, 0) = terminal(z e^B) (Wilmott, Howison & Dewynne 1995, ch. 5).  W
    takes ``time_steps`` equal steps in tau, Crank-Nicolson after a damped
    top step of two implicit half steps (Rannacher), all with one
    factorisation of I - hL; where var is not positive it takes none.
    PricingError when var, B or C is not finite, when e^B or e^{-C} is not a
    finite float, or when the solution is not finite.
    """
    n, steps = grid.nodes_per_axis, grid.time_steps
    _check_budget(_words_1d(n, steps), "a 1-D solve")
    var, drift, discount = _integrals(spec.coefficients, spec.maturity, spec.breakpoints)
    with np.errstate(all="ignore"):  # refused below
        factors = np.exp([drift, -discount])
    if not np.isfinite([var, drift, discount, *factors]).all():
        raise PricingError(
            f"the integrated diffusion {var:g}, drift {drift:g} and discount "
            f"{discount:g} do not give finite double precision factors")
    growth, df = factors.tolist()
    z, s2, _ = _log_grid(spec.anchor, _span(var, drift - 0.5 * var), n)
    with np.errstate(all="ignore"):  # a solution that is not finite is refused
        w = _cell_average_1d(lambda zeta: spec.terminal(growth * zeta), z)
        if var > 0.0:
            hl = s2 * (0.5 * (var / steps))
            lu = _factor_line(*hl)  # I - hL
            hl[1] += 1.0  # I + hL
            for k in range(steps + 1):
                w = dgttrs(*lu, w if k < 2 else _apply(hl, w), overwrite_b=1)[0]
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
        r = np.atleast_2d(np.asarray(spec.rate(t_mid, xg[:, None], yg[None, :]),
                                     dtype=float))
        qx, qy = spec.yields
        bands1, op1 = self._operator(0, axx, r - qx, 0.5 * r, h)
        bands2, op2 = self._operator(1, ayy, (r - qy).T, 0.5 * r.T, h)
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
        np.multiply(b, s1, out=bands)
        bands += a * s2
        bands[1] -= c
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
    physical time on ``_plan``'s steps.  Each stage factors I - (dt/2) L
    along each axis once and uses that factorisation for the predictor and
    the corrector.
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
    ``diffusion`` is read; the terminal's homogeneity is checked on a sample
    of ratios.
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

    def coefficients(t):
        axx, axy, ayy = spec2.diffusion(t)
        return axx - 2.0 * axy + ayy, qy - qx, qy

    return Pde1Spec(coefficients=coefficients, terminal=payoff, maturity=spec2.maturity,
                    anchor=x0 / y0, breakpoints=spec2.breakpoints)


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
