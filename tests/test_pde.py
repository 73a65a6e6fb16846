"""Finite-difference solvers: accuracy against closed forms, structural
exactness on linear data, convergence order, and the reduction-gap diagnostic."""

import math

import numpy as np
import pytest

from numerkit.analytic import bs_call
from numerkit.errors import GridExtrapolationError, ReductionError, TimeDomainError
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
    return Pde1Spec(
        diffusion=lambda t: sigma * sigma,
        drift=lambda t: rate,
        discount=lambda t: rate,
        terminal=lambda z: np.maximum(z - strike, 0.0),
        maturity=maturity,
    )


def _exchange_spec_2d(rate=0.03):
    return Pde2Spec(
        diffusion_xx=lambda t: 0.04,
        diffusion_xy=lambda t: 0.01,
        diffusion_yy=lambda t: 0.09,
        drift_x=lambda t, x, y: rate,
        drift_y=lambda t, x, y: rate,
        discount=lambda t, x, y: rate,
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


class TestSolve1D:
    def test_constant_preserved(self):
        spec = Pde1Spec(diffusion=lambda t: 0.04, drift=lambda t: 0.0,
                        discount=lambda t: 0.0,
                        terminal=lambda z: np.ones_like(z), maturity=1.0)
        sol = solve_1d(spec, GridSpec(64, 16))
        assert sol(1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_linear_exact_when_drift_equals_discount(self):
        spec = Pde1Spec(diffusion=lambda t: 0.04, drift=lambda t: 0.05,
                        discount=lambda t: 0.05,
                        terminal=lambda z: np.asarray(z, dtype=float),
                        maturity=1.0)
        sol = solve_1d(spec, GridSpec(100, 50))
        for z in (0.7, 1.0, 1.4):
            assert sol(z, 0.0) == pytest.approx(z, rel=1e-12)

    def test_call_matches_black_scholes(self):
        sigma, rate = 0.2, 0.05
        sol = solve_1d(_call_spec_1d(sigma, rate), GridSpec(400, 200))
        for z in (0.8, 0.9, 1.0, 1.1, 1.25):
            ref = bs_call(z, 1.0, rate, rate, sigma, 1.0)
            assert sol(z, 0.0) == pytest.approx(ref, rel=5e-4)

    def test_piecewise_diffusion_with_breakpoint(self):
        # variance accumulates piecewise; the breakpoint forces a grid node
        # and a damped restart there
        t_switch = 0.4
        spec = Pde1Spec(
            diffusion=lambda t: 0.09 if t < t_switch else 0.01,
            drift=lambda t: 0.0, discount=lambda t: 0.0,
            terminal=lambda z: np.maximum(z - 1.0, 0.0),
            maturity=1.0, breakpoints=(t_switch,))
        sol = solve_1d(spec, GridSpec(400, 200))
        assert t_switch in sol.times
        vol = math.sqrt(0.09 * t_switch + 0.01 * (1.0 - t_switch))
        for z in (0.8, 1.0, 1.2):
            ref = bs_call(z, 1.0, 0.0, 0.0, vol, 1.0)
            assert sol(z, 0.0) == pytest.approx(ref, rel=1e-3)

    def test_discounting(self):
        spec = Pde1Spec(diffusion=lambda t: 0.04, drift=lambda t: 0.0,
                        discount=lambda t: 0.07,
                        terminal=lambda z: np.ones_like(z), maturity=2.0)
        sol = solve_1d(spec, GridSpec(64, 32))
        # the damped terminal step is locally first-order, so expect ~(c dt)^2
        assert sol(1.0, 0.0) == pytest.approx(math.exp(-0.14), rel=1e-5)

    def test_bounded_terminal_stays_bounded(self):
        spec = Pde1Spec(diffusion=lambda t: 0.09, drift=lambda t: 0.0,
                        discount=lambda t: 0.0,
                        terminal=lambda z: (np.asarray(z) > 1.0).astype(float),
                        maturity=1.0)
        sol = solve_1d(spec, GridSpec(100, 50))
        assert sol.values.min() >= -1e-9
        assert sol.values.max() <= 1.0 + 1e-9

    def test_second_order_convergence(self):
        ref = bs_call(1.0, 1.0, 0.0, 0.0, 0.2, 1.0)

        def error(nodes, steps):
            spec = Pde1Spec(diffusion=lambda t: 0.04, drift=lambda t: 0.0,
                            discount=lambda t: 0.0,
                            terminal=lambda z: np.maximum(z - 1.0, 0.0),
                            maturity=1.0)
            return abs(solve_1d(spec, GridSpec(nodes, steps))(1.0, 0.0) - ref)

        e_coarse = error(50, 25)
        e_mid = error(100, 50)
        e_fine = error(200, 100)
        assert e_coarse / e_mid > 3.0
        assert e_mid / e_fine > 3.0

    def test_time_domain_guard(self):
        sol = solve_1d(_call_spec_1d(), GridSpec(64, 16))
        with pytest.raises(TimeDomainError):
            sol(1.0, 1.5)
        with pytest.raises(TimeDomainError):
            sol(1.0, -0.5)

    def test_grid_extrapolation_guard(self):
        sol = solve_1d(_call_spec_1d(), GridSpec(64, 16))
        with pytest.raises(GridExtrapolationError):
            sol(1e6, 0.0)
        with pytest.raises(GridExtrapolationError):
            sol(1e-6, 0.0)


class TestSolve2D:
    def test_linear_exact_when_drift_equals_discount(self):
        spec = Pde2Spec(
            diffusion_xx=lambda t: 0.04, diffusion_xy=lambda t: 0.01,
            diffusion_yy=lambda t: 0.09,
            drift_x=lambda t, x, y: 0.05, drift_y=lambda t, x, y: 0.02,
            discount=lambda t, x, y: 0.05,
            terminal=lambda x, y: x * np.ones_like(y), maturity=1.0)
        sol = solve_2d(spec, GridSpec(64, 16))
        for x in (0.8, 1.0, 1.2):
            for y in (0.9, 1.1):
                assert sol(x, y, 0.0) == pytest.approx(x, rel=1e-12)

    def test_exchange_matches_closed_form(self):
        sol = solve_2d(_exchange_spec_2d(), GridSpec(160, 80))
        vol = math.sqrt(0.04 - 2 * 0.01 + 0.09)
        # equal drift and discount: the quotient is an undiscounted exchange
        ref = bs_call(1.0, 1.0, 0.0, 0.0, vol, 1.0)
        assert sol(1.0, 1.0, 0.0) == pytest.approx(ref, rel=2e-3)

    def test_terminal_plane_reproduced(self):
        spec = _exchange_spec_2d()
        sol = solve_2d(spec, GridSpec(64, 16))
        assert sol(1.3, 0.9, 1.0) == pytest.approx(0.4, rel=1e-9)

    def test_domain_guards(self):
        sol = solve_2d(_exchange_spec_2d(), GridSpec(64, 16))
        with pytest.raises(TimeDomainError):
            sol(1.0, 1.0, 2.0)
        with pytest.raises(GridExtrapolationError):
            sol(1e6, 1.0, 0.0)

    def test_only_initial_and_terminal_planes_kept(self):
        sol = solve_2d(_exchange_spec_2d(), GridSpec(64, 16))
        assert sol.values.shape == (2, 64, 64)
        assert list(sol.times) == [0.0, 1.0]
        for t in (0.5, 1e-6, 1.0 - 1e-6):
            with pytest.raises(TimeDomainError):
                sol(1.0, 1.0, t)


class TestDeriveReduced:
    def test_exchange_coefficients(self):
        red = derive_reduced(_exchange_spec_2d(rate=0.03), numeraire_axis=1)
        assert red.diffusion(0.3) == pytest.approx(0.04 - 0.02 + 0.09, abs=1e-15)
        assert red.drift(0.3) == pytest.approx(0.0, abs=1e-15)
        assert red.discount(0.3) == pytest.approx(0.0, abs=1e-15)
        assert red.maturity == 1.0
        assert red.terminal(np.array([1.4]))[0] == pytest.approx(0.4)

    def test_numeraire_axis_zero(self):
        red = derive_reduced(_exchange_spec_2d(rate=0.03), numeraire_axis=0)
        # quotient coordinate is y/x, so the payoff flips into a put
        assert red.terminal(np.array([0.7]))[0] == pytest.approx(0.3)
        assert red.terminal(np.array([1.5]))[0] == pytest.approx(0.0)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            derive_reduced(_exchange_spec_2d(), numeraire_axis=2)

    def test_inhomogeneous_terminal_rejected(self):
        spec = Pde2Spec(
            diffusion_xx=lambda t: 0.04, diffusion_xy=lambda t: 0.01,
            diffusion_yy=lambda t: 0.09,
            drift_x=lambda t, x, y: 0.03, drift_y=lambda t, x, y: 0.03,
            discount=lambda t, x, y: 0.03,
            terminal=lambda x, y: np.maximum(x * y - 1.0, 0.0), maturity=1.0)
        with pytest.raises(ReductionError):
            derive_reduced(spec, numeraire_axis=1)

    def test_state_dependent_drift_rejected(self):
        spec = Pde2Spec(
            diffusion_xx=lambda t: 0.04, diffusion_xy=lambda t: 0.01,
            diffusion_yy=lambda t: 0.09,
            drift_x=lambda t, x, y: 0.01 * x, drift_y=lambda t, x, y: 0.0,
            discount=lambda t, x, y: 0.0,
            terminal=lambda x, y: np.maximum(x - y, 0.0), maturity=1.0)
        with pytest.raises(ReductionError):
            derive_reduced(spec, numeraire_axis=1)


class TestReductionGap:
    def test_gap_small_and_shrinks_under_refinement(self):
        spec = _exchange_spec_2d()
        coarse = reduction_gap(spec, 1, GridSpec(100, 50))
        fine = reduction_gap(spec, 1, GridSpec(200, 100))
        assert fine < coarse
        assert fine < 1e-3

    def test_custom_probes(self):
        spec = _exchange_spec_2d()
        gap = reduction_gap(spec, 1, GridSpec(100, 50), probes=[(1.0, 1.0)])
        assert 0.0 <= gap < 5e-3
