"""Finite-difference solvers: accuracy against closed forms, structural
exactness on linear data, convergence order, and the reduction-gap diagnostic."""

import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numerkit import pde, products, ratecurve, verify
from numerkit.analytic import bs_call
from numerkit.errors import (
    DegenerateCovarianceError,
    GridExtrapolationError,
    PricingError,
    ReductionError,
)
from numerkit.pde import (
    GridSpec,
    Pde1Spec,
    Pde2Spec,
    derive_reduced,
    reduction_gap,
    solve_1d,
    solve_2d,
)


def _call_spec_1d(sigma=0.2, rate=0.05, strike=1.0, maturity=1.0):
    return Pde1Spec(variance=sigma * sigma * maturity, drift=rate * maturity,
                    discount=rate * maturity,
                    terminal=lambda z: np.maximum(z - strike, 0.0))


def _exchange_spec_2d(rate=0.03):
    return Pde2Spec(
        diffusion=lambda t: (0.04, 0.01, 0.09),
        rate=lambda t, x, y: rate,
        terminal=lambda x, y: np.maximum(x - y, 0.0),
        maturity=1.0,
    )


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        assert g.nodes_per_axis == 400 and g.time_steps == 200

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            GridSpec(nodes_per_axis=15)

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            GridSpec(time_steps=7)

    @pytest.mark.parametrize("counts", [(400.0, 200), (math.nan, 200), (400, 200.5),
                                        (True, 200), (400, np.float64(200))])
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(ValueError, match="must be an integer"):
            GridSpec(*counts)

    def test_numpy_integers_accepted_as_ints(self):
        g = GridSpec(np.int64(32), np.uint16(16))
        assert (g.nodes_per_axis, g.time_steps) == (32, 16)
        assert type(g.nodes_per_axis) is int and type(g.time_steps) is int


class TestGridBudget:
    """An oversized grid is refused from its GridSpec, before allocation."""

    @pytest.mark.parametrize("grid", [GridSpec(10**8, 200), GridSpec(16, 10**10)])
    @pytest.mark.parametrize("solve, spec", [
        (solve_1d, _call_spec_1d()), (solve_2d, _exchange_spec_2d())])
    def test_oversized_grid_raises_before_allocating(self, solve, spec, grid):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                solve(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _counted(monkeypatch, name):
    """A list that grows by each call of ``pde.<name>``'s positional
    arguments."""
    calls = []
    fn = getattr(pde, name)
    monkeypatch.setattr(pde, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


def _builds(calls):
    """Counted ``_Tridiag`` builds per axis, by the axis' node count."""
    return Counter(lower.shape[0] for lower, *_ in calls)


def _dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)


class TestTridiagKernel:
    """The factored (I - h L) kernel against dense linear algebra."""

    N, M, H = 50, 7, 0.01
    RNG = np.random.default_rng(20131031)

    def _bands(self, *batch):
        shape = (self.N, *batch)
        return (self.RNG.uniform(0.0, 5.0, shape), self.RNG.uniform(-12.0, -1.0, shape),
                self.RNG.uniform(0.0, 5.0, shape))

    def _shifted(self, bands, col=None):
        lower, diag, upper = (b if col is None else b[:, col] for b in bands)
        return np.eye(self.N) - self.H * _dense(lower, diag, upper)

    def _solver(self, lower, diag, upper):
        """solve(rhs) of I - H L: the LAPACK factors of solve_1d for a single
        line, the plane kernel of solve_2d otherwise."""
        if diag.ndim == 1:
            lu = pde._factor_line(self.H * lower, self.H * diag, self.H * upper)
            return lambda rhs: pde.dgttrs(*lu, rhs)[0]
        return pde._Tridiag(lower, diag, upper, self.H).solve

    def test_single_system(self):
        bands = self._bands()
        rhs = self.RNG.normal(size=self.N)
        ref = np.linalg.solve(self._shifted(bands), rhs)
        solve = self._solver(*bands)
        assert np.max(np.abs(solve(rhs.copy()) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_shared_matrix_many_right_hand_sides(self):
        bands = tuple(b[:, None] for b in self._bands())
        rhs = self.RNG.normal(size=(self.N, self.M))
        op = pde._Tridiag(*bands, self.H)
        ref = np.linalg.solve(self._shifted(bands, 0), rhs)
        # C input is swept in place; F input is copied to C order first
        for order in "CF":
            got = op.solve(rhs.copy(order=order))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            # the one factorisation serves a second solve
            assert np.array_equal(op.solve(rhs.copy(order=order)), got)

    def test_shared_matrix_rows_of_a_plane_that_is_not_c_ordered(self):
        """Row views handed in with an F-ordered plane are views of that
        plane, not of the C-ordered copy that is swept, so the copy is swept
        on its own rows."""
        bands = tuple(b[:, None] for b in self._bands())
        rhs = self.RNG.normal(size=(self.N, self.M))
        op = pde._Tridiag(*bands, self.H)
        ref = np.linalg.solve(self._shifted(bands, 0), rhs)
        plane = rhs.copy(order="F")
        got = op.solve(plane, list(plane))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_one_matrix_per_column(self):
        bands = self._bands(self.M)
        rhs = self.RNG.normal(size=(self.N, self.M))
        op = pde._Tridiag(*bands, self.H)
        got = op.solve(rhs.copy())
        for j in range(self.M):
            ref = np.linalg.solve(self._shifted(bands, j), rhs[:, j])
            assert np.max(np.abs(got[:, j] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_shared_matrix_second_solve_bit_equal(self):
        bands = tuple(b[:, None] for b in self._bands())
        rhs = self.RNG.normal(size=(self.N, self.M))
        op = pde._Tridiag(*bands, self.H)
        first = op.solve(rhs.copy())
        assert np.array_equal(op.solve(rhs.copy()), first)
        # the sweeps of a plane whose row views are held across solves are
        # the sweeps without them, and solve in place
        plane = np.empty_like(rhs)
        rows = list(plane)
        ref = np.linalg.solve(self._shifted(bands, 0), rhs)
        for _ in range(2):
            plane[...] = rhs
            assert op.solve(plane, rows) is plane
            assert np.array_equal(plane, first)
            assert np.max(np.abs(plane - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("view", ["transposed", "strided"])
    def test_non_contiguous_plane(self, view):
        # the shared-matrix sweep updates rows in place with BLAS daxpy,
        # which given a strided row would update a copy and lose the result
        bands = tuple(b[:, None] for b in self._bands())
        rhs = self.RNG.normal(size=(self.N, self.M))
        ref = np.linalg.solve(self._shifted(bands, 0), rhs)
        if view == "transposed":
            operand = rhs.T.copy().T
        else:
            operand = np.repeat(rhs, 2, axis=1)[:, ::2]
        assert not operand.flags.c_contiguous
        got = pde._Tridiag(*bands, self.H).solve(operand)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("batch", [(1,), (7,), ()])
    def test_non_finite_coefficients_refused(self, batch):
        # an infinite diagonal factors to finite multipliers and would solve
        # to a wrong answer with no NaN in it
        for band in range(3):
            for bad in (np.nan, np.inf, -np.inf):
                bands = self._bands(*batch)
                bands[band][3] = bad
                with pytest.raises(np.linalg.LinAlgError):
                    self._solver(*bands)

    @pytest.mark.parametrize("batch", [(1,), (7,), ()])
    def test_zero_pivot_refused(self, batch):
        # row and column 0 of I - h L are zero: singular under any pivoting
        lower, diag, upper = self._bands(*batch)
        diag[0], upper[0], lower[1] = 1.0 / self.H, 0.0, 0.0
        with pytest.raises(np.linalg.LinAlgError):
            self._solver(lower, diag, upper)

    @pytest.mark.parametrize("batch", [(1,), (7,)])
    def test_plane_apply_matches_dense(self, batch):
        # one einsum over 3-row windows, and the two boundary rows, against
        # the dense matrix of each column's bands
        bands = np.array(self._bands(*batch))
        v = self.RNG.normal(size=(self.N, self.M))
        got = pde._apply(bands, v, pde.sliding_window_view(v, 3, axis=0), np.empty(v.shape))
        for j in range(self.M):
            col = bands[..., j if batch[0] > 1 else 0]
            assert np.allclose(got[:, j], _dense(*col) @ v[:, j], rtol=1e-13, atol=0.0)


class TestTimeGrid:
    """The planner the 2-D solve takes its steps from."""

    def test_steps_bit_equal_per_segment_and_breakpoints_are_nodes(self):
        maturity, breakpoints = 1.7, (0.3, 1.1)
        cuts = [0.0, *breakpoints, maturity]
        plan = pde._plan(cuts, 200)
        assert len(plan) == len(cuts) - 1
        for (a, b), (h, top, mids) in zip(zip(cuts[:-1], cuts[1:]), plan):
            n = len(mids) + 1
            assert n == round(200 * (b - a) / maturity)
            # one half step for every step of the segment, bit-equal to
            # half its length over its step count
            assert 2.0 * h == (b - a) / n
            # the frozen midpoints are 2h apart and the segment's edges are
            # the breakpoints
            frozen = np.array([*mids, 0.5 * (top[0] + top[1])])
            assert np.allclose(np.diff(frozen), 2.0 * h, rtol=1e-12, atol=0.0)
            assert frozen[0] - h == pytest.approx(a, abs=1e-12)
            assert frozen[-1] + h == pytest.approx(b, abs=1e-12)
            assert top == pytest.approx([b - 0.5 * h, b - 1.5 * h], abs=1e-12)


class TestSolve1D:
    def test_constant_preserved(self):
        spec = Pde1Spec(0.04, 0.0, 0.0, terminal=lambda z: np.ones_like(z))
        sol = solve_1d(spec, GridSpec(64, 16))
        assert sol(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_linear_exact_when_drift_equals_discount(self):
        spec = Pde1Spec(0.04, 0.05, 0.05, terminal=lambda z: np.asarray(z, dtype=float))
        sol = solve_1d(spec, GridSpec(100, 50))
        for z in (0.7, 1.0, 1.4):
            assert sol(z) == pytest.approx(z, rel=1e-12)

    def test_call_matches_black_scholes(self):
        sigma, rate = 0.2, 0.05
        sol = solve_1d(_call_spec_1d(sigma, rate), GridSpec(400, 200))
        for z in (0.8, 0.9, 1.0, 1.1, 1.25):
            ref = bs_call(z, 1.0, rate, rate, sigma, 1.0)
            assert sol(z) == pytest.approx(ref, rel=5e-4)

    def test_piecewise_diffusion_with_breakpoint(self):
        # variance accumulates piecewise: the breakpoint cuts its integral
        t_switch = 0.4
        spec = derive_reduced(Pde2Spec(
            diffusion=lambda t: (0.09 if t < t_switch else 0.01, 0.0, 0.0),
            rate=lambda t, x, y: 0.0, terminal=lambda x, y: np.maximum(x - y, 0.0),
            maturity=1.0, breakpoints=(t_switch,)))
        var = 0.09 * t_switch + 0.01 * (1.0 - t_switch)
        assert spec.variance == pytest.approx(var, rel=1e-13)
        sol = solve_1d(spec, GridSpec(400, 200))
        vol = math.sqrt(var)
        for z in (0.8, 1.0, 1.2):
            ref = bs_call(z, 1.0, 0.0, 0.0, vol, 1.0)
            assert sol(z) == pytest.approx(ref, rel=1e-3)

    def test_discounting(self):
        spec = Pde1Spec(0.08, 0.0, 0.14, terminal=lambda z: np.ones_like(z))
        sol = solve_1d(spec, GridSpec(64, 32))
        # the discount is taken out exactly and the heat march keeps a constant
        assert sol(1.0) == pytest.approx(math.exp(-0.14), rel=1e-5)

    def test_bounded_terminal_stays_bounded(self):
        spec = Pde1Spec(0.09, 0.0, 0.0,
                        terminal=lambda z: (np.asarray(z) > 1.0).astype(float))
        sol = solve_1d(spec, GridSpec(100, 50))
        assert sol.values.min() >= -1e-9
        assert sol.values.max() <= 1.0 + 1e-9

    def test_second_order_convergence(self):
        ref = bs_call(1.0, 1.0, 0.0, 0.0, 0.2, 1.0)

        def error(nodes, steps):
            spec = Pde1Spec(0.04, 0.0, 0.0, terminal=lambda z: np.maximum(z - 1.0, 0.0))
            return abs(solve_1d(spec, GridSpec(nodes, steps))(1.0) - ref)

        e_coarse = error(50, 25)
        e_mid = error(100, 50)
        e_fine = error(200, 100)
        assert e_coarse / e_mid > 3.0
        assert e_mid / e_fine > 3.0

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(b=st.floats(-4.0, 4.0))
    def test_drift_only_moves_where_the_terminal_is_read(self, b):
        # the at-the-forward call of strike e^b is e^b times the b = 0 call:
        # the grid spans the heat equation's own drift, not b, so the error
        # is flat in b (a grid widened by |b| coarsens the nodes about the
        # anchor: 3.4e-2 at b = 4)
        def error(drift):
            strike = math.exp(drift)
            spec = Pde1Spec(0.04, drift, 0.0, terminal=lambda z: np.maximum(z - strike, 0.0))
            ref = bs_call(1.0, strike, 0.0, drift, 0.2, 1.0)
            return solve_1d(spec, GridSpec(100, 50))(1.0) / ref - 1.0

        assert abs(error(b)) <= 2e-3
        assert error(b) == pytest.approx(error(0.0), rel=1e-9)

    def test_large_discount_growth_priced(self):
        # a discount of -700 grows the value by e^700 (about 1.01e304) to
        # 8.1e302, which a double holds, so it is priced
        spec = Pde1Spec(0.04, 0.0, -700.0, terminal=lambda z: np.maximum(z - 1.0, 0.0))
        ref = bs_call(1.0, 1.0, -700.0, 0.0, 0.2, 1.0)
        assert solve_1d(spec, GridSpec(400, 200))(1.0) == pytest.approx(ref, rel=5e-4)

    @pytest.mark.parametrize("coefficients", [
        (0.04, 0.0, -710.0), (0.04, 0.0, -1e308), (0.04, 0.0, math.nan),
        (0.04, 0.0, math.inf), (0.04, 0.0, -709.0), (0.04, 710.0, 0.0),
        (0.04, -1e308, 0.0), (0.04, math.nan, 0.0), (math.nan, 0.0, 0.0),
        (1e308, 0.0, 0.0)], ids=lambda abc: "a=%g,b=%g,c=%g" % abc)
    def test_stiff_or_non_finite_coefficients_refused(self, coefficients):
        # over [0, 1] the integrals (var, B, C) are the rates (a, b, c): one
        # of them, e^B, e^{-C} or the discounted solution (at C = -709,
        # e^709 times the top node's payoff) leaves double precision:
        # refused, never an OverflowError, an inf or NaN, or a RuntimeWarning
        spec = Pde1Spec(*coefficients, terminal=lambda z: np.maximum(z - 1.0, 0.0))
        with pytest.raises(PricingError):
            solve_1d(spec, GridSpec(100, 50))

    @pytest.mark.parametrize("variance", [-1e-300, -0.04, -math.inf])
    def test_negative_variance_refused(self, variance):
        # as the quadrature route refuses it, before any grid is built
        spec = Pde1Spec(variance, 0.0, 0.0, terminal=lambda z: np.maximum(z - 1.0, 0.0))
        with pytest.raises(DegenerateCovarianceError, match="non-negative"):
            solve_1d(spec, GridSpec(100, 50))

    @pytest.mark.parametrize("variance", [0.01, 0.09, 0.5])
    @pytest.mark.parametrize("terminal", [lambda z: z * z, lambda z: np.maximum(z - 1.0, 0.0)],
                             ids=["smooth", "kinked"])
    def test_march_matches_dense_crank_nicolson(self, variance, terminal):
        # the same grid and cell-averaged terminal marched by dense solves
        # with I -/+ hL, h half a step: two implicit half steps, then
        # Crank-Nicolson; the solve's march agrees to rounding
        steps = 16
        sol = solve_1d(Pde1Spec(variance, 0.0, 0.0, terminal), GridSpec(60, steps))
        d2 = pde._stencils(sol.z)[1]
        hl = (0.5 * variance / steps) * _dense(*(0.5 * sol.z * sol.z * d2))
        eye = np.eye(sol.z.size)
        w = pde._cell_average_1d(terminal, sol.z)
        for _ in range(2):
            w = np.linalg.solve(eye - hl, w)
        for _ in range(steps - 1):
            w = np.linalg.solve(eye - hl, (eye + hl) @ w)
        assert np.max(np.abs(sol.values - w)) <= 1e-13 * np.max(np.abs(w))

    @pytest.mark.parametrize("anchor", [0.0, -1.0, math.nan])
    def test_anchor_must_be_positive(self, anchor):
        spec = Pde1Spec(0.04, 0.0, 0.0, terminal=lambda z: np.maximum(z - 1.0, 0.0),
                        anchor=anchor)
        with pytest.raises(ValueError, match="grid anchor must be positive"):
            solve_1d(spec, GridSpec(64, 16))

    def test_grid_extrapolation_guard(self):
        sol = solve_1d(_call_spec_1d(), GridSpec(64, 16))
        with pytest.raises(GridExtrapolationError):
            sol(1e6)
        with pytest.raises(GridExtrapolationError):
            sol(1e-6)


class TestClocks:
    """The 1-D solve takes its drift and discount out exactly and marches
    the heat equation in variance time: a diffusion that varies in t enters
    only through its integral, taken once by ``derive_reduced``, and nothing
    steps where nothing diffuses."""

    # the quotient of a diffusion axx(t) = s^2 (1 + k sin(w t + phi)) with
    # yields (c - b, c) is a call on a lognormal of variance V = integral of
    # axx over [0, T], forward e^{bT} and discount factor e^{-cT}; at
    # GridSpec(200, 100) the undiscounted solve e^{cT} U at the spot lies
    # within 2e-4 of the undiscounted closed form
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(s=st.floats(0.1, 0.5), k=st.floats(0.0, 0.9), w=st.floats(0.5, 8.0),
           phi=st.floats(0.0, 6.3), maturity=st.floats(0.25, 2.0),
           strike=st.floats(0.8, 1.25), b=st.floats(-0.1, 0.1), c=st.floats(-50.0, 50.0))
    def test_time_varying_diffusion_matches_black_scholes(self, s, k, w, phi,
                                                          maturity, strike, b, c):
        spec = derive_reduced(Pde2Spec(
            diffusion=lambda t: (s * s * (1.0 + k * math.sin(w * t + phi)), 0.0, 0.0),
            rate=lambda t, x, y: 0.0, yields=(c - b, c),
            terminal=lambda x, y: np.maximum(x - strike * y, 0.0), maturity=maturity))
        var = s * s * (maturity + k * (math.cos(phi) - math.cos(w * maturity + phi)) / w)
        assert spec.variance == pytest.approx(var, rel=1e-12)
        ref = bs_call(1.0, strike, c, b, math.sqrt(var / maturity), maturity)
        error = abs(solve_1d(spec, GridSpec(200, 100))(1.0) - ref)
        assert error <= 2e-4 * math.exp(-c * maturity)

    @pytest.mark.parametrize("diffusion_after", [0.0, 0.04])
    def test_vanishing_diffusion_transports_and_discounts(self, monkeypatch,
                                                          diffusion_after):
        # a = 0 for a span with drift b and discount c, and a diffusing
        # span of 0.5 without either (or none): a linear payoff g has
        # U(z, 0) = e^{-c t} g(z e^{b t}) for t the time a = 0, taken out
        # exactly, and the heat march keeps linear data; with no diffusion
        # at all nothing is factored
        b, c = 0.03, 0.05
        span = 0.5 if diffusion_after else 1.0
        spec = Pde1Spec(0.5 * diffusion_after, b * span, c * span,
                        terminal=lambda z: 2.0 * z + 1.0)
        factors = _counted(monkeypatch, "dgttrf")
        sol = solve_1d(spec, GridSpec(100, 50))
        assert len(factors) == (1 if diffusion_after else 0)
        for z in (0.98, 1.0, 1.01):
            exact = math.exp(-c * span) * (2.0 * z * math.exp(b * span) + 1.0)
            assert sol(z) == pytest.approx(exact, rel=1e-6)

    def test_dead_segment_takes_no_steps(self, monkeypatch):
        # the default esop's quotient is still (a = b = c = 0) before its
        # reset, so variance time does not pass there: all the steps fall
        # after it, the top one as two implicit half steps, so there is one
        # solve per step and one more
        f = next(f for f in _formulations() if f.label == "esop")
        spec = derive_reduced(f.pde2)
        solves = _counted(monkeypatch, "dgttrs")
        solve_1d(spec, GridSpec(100, 50))
        assert len(solves) == 50 + 1

    @pytest.mark.parametrize("label", ["esop", "fx_gbp", "savings", "convertible",
                                       "corporate", "breakpoint"])
    def test_vasicek_quotient_factors_once(self, monkeypatch, label):
        # one operator, s2, in variance time whatever the diffusion does in
        # t: one factorisation per solve of a default quotient or of an
        # exchange whose diffusion jumps at a breakpoint
        if label == "breakpoint":
            spec = derive_reduced(Pde2Spec(
                diffusion=lambda t: (0.09, 0.02, 0.05) if t < 0.4 else (0.01, -0.01, 0.03),
                rate=lambda t, x, y: 0.04, yields=(0.01, 0.03),
                terminal=lambda x, y: np.maximum(x - y, 0.0), maturity=1.0,
                breakpoints=(0.4,)))
        else:
            f = next(f for f in _formulations() if f.label == label)
            spec = derive_reduced(products.numeraire_on_y(f).pde2)
        factors = _counted(monkeypatch, "dgttrf")
        solve_1d(spec, GridSpec())
        assert len(factors) == 1


class TestSolve2D:
    def test_linear_exact_when_drift_equals_discount(self):
        spec = Pde2Spec(
            diffusion=lambda t: (0.04, 0.01, 0.09),
            rate=lambda t, x, y: 0.05, yields=(0.0, 0.03),
            terminal=lambda x, y: x * np.ones_like(y), maturity=1.0)
        sol = solve_2d(spec, GridSpec(64, 16))
        for x in (0.8, 1.0, 1.2):
            for y in (0.9, 1.1):
                assert sol(x, y) == pytest.approx(x, rel=1e-12)

    def test_exchange_matches_closed_form(self):
        sol = solve_2d(_exchange_spec_2d(), GridSpec(160, 80))
        vol = math.sqrt(0.04 - 2 * 0.01 + 0.09)
        # equal drift and discount: the quotient is an undiscounted exchange
        ref = bs_call(1.0, 1.0, 0.0, 0.0, vol, 1.0)
        assert sol(1.0, 1.0) == pytest.approx(ref, rel=2e-3)

    def test_terminal_plane_reproduced(self):
        # the cell average of max(x - y, 0) is the payoff wherever no window
        # reaches the kink x = y
        x, y = np.geomspace(0.5, 2.0, 33), np.geomspace(0.6, 1.8, 29)
        plane = pde._cell_average_2d(_exchange_spec_2d().terminal, x, y)
        far = np.abs(np.log(x[:, None] / y[None, :])) > 0.1
        payoff = np.maximum(x[:, None] - y[None, :], 0.0)
        assert far.sum() > 500
        assert np.allclose(plane[far], payoff[far], rtol=1e-12, atol=1e-15)

    def test_window_views_built_once_per_plane(self, monkeypatch):
        # a 3-row window view follows its plane's data, so each plane the
        # stencils read (w, its transpose and the mixed term's inner plane)
        # gets one per solve, however many steps the solve takes
        counts = []
        for grid in (GridSpec(16, 8), GridSpec(32, 16)):
            views = _counted(monkeypatch, "sliding_window_view")
            solve_2d(_exchange_spec_2d(), grid)
            counts.append(len(views))
        assert counts == [3, 3]

    def test_coefficients_moving_with_t_rebuild_every_stage(self, monkeypatch):
        # diffusion and rate move smoothly in t with no breakpoint to mark
        # it, so an operator held past its stage would go stale: the price is
        # Margrabe's at the integrated variance, and each of the 81 stages
        # (79 steps and the damped top step's two halves) builds both axes
        k, om = 0.5, 3.0
        f = lambda t: 1.0 + k * math.sin(om * t)
        spec = Pde2Spec(diffusion=lambda t: (0.04 * f(t), 0.01 * f(t), 0.09 * f(t)),
                        rate=lambda t, x, y: 0.03 * f(t),
                        terminal=lambda x, y: np.maximum(x - y, 0.0), maturity=1.0)
        calls = _counted(monkeypatch, "_Tridiag")
        sol = solve_2d(spec, GridSpec(160, 80))
        var = 0.11 * (1.0 + k * (1.0 - math.cos(om)) / om)
        ref = bs_call(1.0, 1.0, 0.0, 0.0, math.sqrt(var), 1.0)
        assert sol(1.0, 1.0) == pytest.approx(ref, rel=2e-3)
        assert _builds(calls) == {sol.x.size: 81, sol.y.size: 81}

    def test_domain_guards(self):
        sol = solve_2d(_exchange_spec_2d(), GridSpec(64, 16))
        with pytest.raises(GridExtrapolationError):
            sol(1e6, 1.0)

    @pytest.mark.parametrize("solve, spec, point", [
        (solve_1d, _call_spec_1d(), (1.0,)), (solve_2d, _exchange_spec_2d(), (1.0, 1.0))],
        ids=["solve_1d", "solve_2d"])
    def test_only_initial_and_terminal_planes_kept(self, solve, spec, point):
        sol = solve(spec, GridSpec(64, 16))
        # the 1-D axis takes nodes_per_axis nodes; TestAxisSizes pins the 2-D
        # exchange spec's 43 x 64
        plane = (64,) if len(point) == 1 else (sol.x.size, sol.y.size)
        assert sol.values.shape == plane
        assert isinstance(sol(*point), float)  # U(z) and V(x, y): no time argument


class TestAxisSizes:
    """Each axis spans its drift characteristic; the widest takes
    nodes_per_axis nodes and the other the same log spacing, at least 16."""

    @staticmethod
    def _spec(vol_x, vol_y):
        # zero log drift along each axis: its half-width is 6 vol
        return Pde2Spec(
            diffusion=lambda t: (vol_x ** 2, 0.0, vol_y ** 2),
            rate=lambda t, x, y: 0.0, yields=(-vol_x ** 2 / 2, -vol_y ** 2 / 2),
            terminal=lambda x, y: np.maximum(x - y, 0.0), maturity=1.0)

    @staticmethod
    def _spacing(z):
        return math.log(z[1] / z[0])

    @pytest.mark.parametrize("vols, sizes", [
        ((0.3, 0.2), (90, 60)), ((0.1, 0.25), (37, 90)), ((0.2, 0.01), (90, 16)),
        ((0.2, 0.2), (90, 90))])
    def test_widest_axis_takes_the_nodes(self, vols, sizes):
        sol = solve_2d(self._spec(*vols), GridSpec(90, 16))
        assert (sol.x.size, sol.y.size) == sizes
        assert math.log(sol.x[-1] / sol.x[0]) == pytest.approx(12 * vols[0], rel=1e-12)
        assert math.log(sol.y[-1] / sol.y[0]) == pytest.approx(12 * vols[1], rel=1e-12)

    @pytest.mark.parametrize("vols", [(0.3, 0.2), (0.1, 0.25), (0.37, 0.11)])
    def test_one_log_spacing(self, vols):
        # the narrower axis' interval count is rounded to a whole one
        sol = solve_2d(self._spec(*vols), GridSpec(200, 16))
        wide, narrow = sorted((sol.x, sol.y), key=len, reverse=True)
        assert wide.size == 200
        assert abs(self._spacing(narrow) / self._spacing(wide) - 1.0) <= 0.5 / (narrow.size - 1)

    def test_exchange_spec(self):
        # half-widths 6 * 0.2 + 0.01 and 6 * 0.3 + 0.015: 63 * 1.21 / 1.815
        # = 42 intervals
        sol = solve_2d(_exchange_spec_2d(), GridSpec(64, 16))
        assert (sol.x.size, sol.y.size) == (43, 64)

    @pytest.mark.parametrize("anchor", [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0)],
                             ids=["zero_x", "negative_y", "nan_x"])
    def test_anchor_must_be_positive(self, anchor):
        spec = dataclasses.replace(_exchange_spec_2d(), anchor=anchor)
        with pytest.raises(ValueError, match="grid anchor must be positive"):
            solve_2d(spec, GridSpec(64, 16))

    def test_infinite_rate_refused(self):
        # the characteristic runs away: no half-width is a finite float
        with pytest.raises(PricingError, match="not representable"):
            solve_2d(_exchange_spec_2d(rate=math.inf), GridSpec(64, 16))

    def test_budget_charges_the_rectangle(self, monkeypatch):
        charged = []
        monkeypatch.setattr(pde, "_check_budget", lambda cells, what: charged.append(cells))
        solve_2d(self._spec(0.2, 0.01), GridSpec(90, 16))
        assert charged == [pde._PLANES_2D * 90 * 16 + pde._STEP_WORDS * (16 + 1)]


def _formulations():
    return [f for product in verify.default_suite()
            for f in products.formulations(product)]


def _cell_average_4d(payoff, x, y):
    """The cell average over one (nx, ny, 4, 4) array of Gauss points."""
    halfx = np.zeros_like(x)
    halfy = np.zeros_like(y)
    halfx[1:-1] = 0.5 * np.minimum(x[1:-1] - x[:-2], x[2:] - x[1:-1])
    halfy[1:-1] = 0.5 * np.minimum(y[1:-1] - y[:-2], y[2:] - y[1:-1])
    q, w = np.polynomial.legendre.leggauss(4)
    xs = x[:, None] + halfx[:, None] * q[None, :]
    ys = y[:, None] + halfy[:, None] * q[None, :]
    vals = np.broadcast_to(payoff(xs[:, None, :, None], ys[None, :, None, :]),
                           (x.size, y.size, q.size, q.size))
    return np.einsum("ijab,a,b->ij", vals, 0.5 * w, 0.5 * w)


class TestDefaultFormulations2D:
    """The 2-D solve on the six formulations of the default products."""

    # pde_full at the anchor on GridSpec(100, 50), with each axis sized from
    # its drift characteristic and the narrower one at the wider's log spacing
    PINNED = {
        "esop": 20.90644426399173,
        "fx_usd": 16.015467299079702,
        "fx_gbp": 12.32075251614895,
        "savings": 1.0480834454680215,
        "convertible": 1.065171967652046,
        "corporate": 1.091114620058852,
    }

    @pytest.mark.parametrize("f", _formulations(), ids=lambda f: f.label)
    def test_pinned_values(self, f):
        sol = solve_2d(f.pde2, GridSpec(100, 50))
        assert sol(*f.anchor) == pytest.approx(self.PINNED[f.label], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("f", _formulations(), ids=lambda f: f.label)
    def test_lines_of_their_own_factored_once_per_stage(self, monkeypatch, f):
        # the Vasicek rate varies along the bond axis, so the x axis has a
        # matrix per line: all of them are one LAPACK factorisation per
        # Craig-Sneyd stage (50 steps: 49 and the damped top step's two
        # halves); an axis whose lines share a matrix calls LAPACK never
        factors = _counted(monkeypatch, "dgttrf")
        solve_2d(f.pde2, GridSpec(100, 50))
        assert len(factors) == (51 if f.label in ("convertible", "corporate") else 0)

    # _Tridiag builds on (x, y) in one solve: an axis builds again only when
    # its frozen coefficients change, which the esop reset does on y alone
    # (it moves axy and ayy, and both segments take the same step); the
    # Vasicek rate moves with t, so both axes build at each of the 51 stages
    BUILDS = {"esop": (1, 2), "fx_usd": (1, 1), "fx_gbp": (1, 1), "savings": (1, 1),
              "convertible": (51, 51), "corporate": (51, 51)}

    @pytest.mark.parametrize("f", _formulations(), ids=lambda f: f.label)
    def test_operators_built_when_coefficients_change(self, monkeypatch, f):
        calls = _counted(monkeypatch, "_Tridiag")
        sol = solve_2d(f.pde2, GridSpec(100, 50))
        nx, ny = self.BUILDS[f.label]
        assert _builds(calls) == Counter({sol.x.size: nx}) + Counter({sol.y.size: ny})

    @pytest.mark.parametrize("f", _formulations(), ids=lambda f: f.label)
    def test_cell_average_matches_one_array(self, f):
        xg = np.geomspace(0.3, 3.0, 41) * f.anchor[0]
        yg = np.geomspace(0.5, 2.0, 37) * f.anchor[1]
        got = pde._cell_average_2d(f.terminal, xg, yg)
        ref = _cell_average_4d(f.terminal, xg, yg)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @staticmethod
    def _peak(solve, spec, grid):
        """(the tracemalloc peak of the solve, its solution)."""
        tracemalloc.start()
        try:
            sol = solve(spec, grid)
            return tracemalloc.get_traced_memory()[1], sol
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("f", _formulations(), ids=lambda f: f.label)
    def test_2d_memory_within_budget(self, f):
        peak, sol = self._peak(solve_2d, f.pde2, GridSpec(100, 50))
        assert peak <= 8 * pde._PLANES_2D * sol.x.size * sol.y.size

    @pytest.mark.parametrize("f", [f for f in _formulations() if f.numeraire_axis is not None],
                             ids=lambda f: f.label)
    def test_1d_memory_within_budget(self, f):
        # the charge bounds the peak at every grid: the smallest, where the
        # fixed part dominates, up to one of many steps
        spec = derive_reduced(products.numeraire_on_y(f).pde2)
        for grid in (GridSpec(16, 8), GridSpec(32, 16), GridSpec(100, 50), GridSpec(),
                     GridSpec(16, 2000)):
            peak = self._peak(solve_1d, spec, grid)[0]
            assert peak <= 8 * pde._words_1d(grid.nodes_per_axis, grid.time_steps), grid


class TestDeriveReduced:
    # the reduced solve at the anchor on GridSpec(100, 50), as computed since
    # the drift and discount are taken out exactly, the heat equation is
    # marched in equal steps of variance time on a grid that spans the heat
    # equation's own log drift, the variance is one adaptive integral of
    # the quotient diffusion, and a Crank-Nicolson step is 2 (I - hL)^-1 w - w
    PINNED = {
        "esop": 0.20864042328205795,
        "fx_gbp": 16.00999284127758,
        "savings": 1.0480983544544924,
        "convertible": 1.1477199192619216,
        "corporate": 1.1258634815168667,
    }

    @pytest.mark.parametrize("f", [f for f in _formulations() if f.numeraire_axis is not None],
                             ids=lambda f: f.label)
    def test_pinned_values(self, f):
        spec = derive_reduced(products.numeraire_on_y(f).pde2)
        assert solve_1d(spec, GridSpec(100, 50))(spec.anchor) == self.PINNED[f.label]

    def test_exchange_coefficients(self):
        # over [0, 1] the integrals are the constant rates
        red = derive_reduced(_exchange_spec_2d(rate=0.03))
        assert red.variance == pytest.approx(0.04 - 0.02 + 0.09, abs=1e-15)
        assert red.drift == pytest.approx(0.0, abs=1e-15)
        assert red.discount == pytest.approx(0.0, abs=1e-15)
        assert red.terminal(np.array([1.4]))[0] == pytest.approx(0.4)

    def test_one_rate_read_per_evaluation(self, monkeypatch):
        # the bond-implied short rate of the default convertible drops out
        # of the quotient, so the reduction never reads it
        f = next(f for f in _formulations() if f.label == "convertible")
        calls = []
        log_affine = ratecurve.log_affine
        monkeypatch.setattr(ratecurve, "log_affine",
                            lambda *a: calls.append(a) or log_affine(*a))
        derive_reduced(f.pde2)
        assert len(calls) == 0

    def test_inhomogeneous_terminal_rejected(self):
        spec = Pde2Spec(
            diffusion=lambda t: (0.04, 0.01, 0.09),
            rate=lambda t, x, y: 0.03,
            terminal=lambda x, y: np.maximum(x * y - 1.0, 0.0), maturity=1.0)
        with pytest.raises(ReductionError):
            derive_reduced(spec)


class TestReductionGap:
    def test_gap_small_and_shrinks_under_refinement(self):
        spec = _exchange_spec_2d()
        coarse = reduction_gap(spec, GridSpec(100, 50))
        fine = reduction_gap(spec, GridSpec(200, 100))
        assert fine < coarse
        assert fine < 1e-3

    @staticmethod
    def _state_rate_spec(rate):
        return Pde2Spec(
            diffusion=lambda t: (0.04, 0.01, 0.09), rate=rate,
            yields=(0.01, 0.02), terminal=lambda x, y: np.maximum(x - y, 0.0),
            maturity=1.0)

    def test_state_dependent_rate_drops_out(self):
        # r (x V_x + y V_y - V) = 0 for a degree-one V (Euler), so a short
        # rate that moves with y, or with x, still leaves the quotient exact;
        # a rate in x gives the y axis one matrix per line
        for rate in (lambda t, x, y: 0.03 + 0.02 * y / (1.0 + y),
                     lambda t, x, y: 0.03 + 0.02 * x / (1.0 + x)):
            spec = self._state_rate_spec(rate)
            coarse = reduction_gap(spec, GridSpec(100, 50))
            fine = reduction_gap(spec, GridSpec(200, 100))
            assert fine < coarse
            assert fine < 1e-3

    def test_reduced_coefficients_never_read_the_rate(self):
        def rate(t, x, y):
            raise AssertionError("the reduction read the short rate")

        red = derive_reduced(self._state_rate_spec(rate))
        assert (red.variance, red.drift, red.discount) == (
            pytest.approx(0.04 - 0.02 + 0.09), pytest.approx(0.01), pytest.approx(0.02))
