"""The benchmark's reference pricer against textbook values.

    python3 -m pytest benchmark/test_reference.py
"""

import math

import pytest

import reference


def test_black_scholes_call_textbook():
    # Hull, Options, Futures and Other Derivatives: S = K = 100, r = 5%,
    # sigma = 20%, T = 1 gives 10.4506
    assert reference.black_scholes_call(100.0, 100.0, 0.05, 0.2, 1.0) == \
        pytest.approx(10.4506, abs=5e-5)


def test_black_scholes_call_put_parity():
    # Hull's example 15.6: S = 42, K = 40, r = 10%, sigma = 20%, T = 0.5
    call = reference.black_scholes_call(42.0, 40.0, 0.1, 0.2, 0.5)
    assert call == pytest.approx(4.76, abs=5e-3)
    put = call - 42.0 + 40.0 * math.exp(-0.1 * 0.5)
    assert put == pytest.approx(0.81, abs=5e-3)


def test_margrabe_limits():
    assert reference.margrabe(3.0, 2.0, 0.0) == 1.0
    assert reference.margrabe(2.0, 3.0, 0.0) == 0.0
    assert reference.margrabe(5.0, 0.0, 0.04) == 5.0
    # exchanging equal assets: S (2 N(s / 2) - 1) with s = sqrt(v)
    v = 0.09
    want = 2.0 * reference.norm_cdf(0.5 * math.sqrt(v)) - 1.0
    assert reference.margrabe(1.0, 1.0, v) == pytest.approx(want, rel=1e-14)


def test_margrabe_symmetry():
    # max(A, B) = B + (A - B)^+ = A + (B - A)^+
    a, b, v = 1.3, 0.9, 0.07
    assert b + reference.margrabe(a, b, v) == \
        pytest.approx(a + reference.margrabe(b, a, v), rel=1e-14)


def test_vasicek_bond_limits():
    vas = {"theta": 0.5, "mu_r": 0.05, "sigma_r": 0.0, "lambda": 0.0,
           "r0": 0.05}
    # started at its mean with no volatility the rate stays put
    assert reference.vasicek_bond(vas, 2.0) == pytest.approx(math.exp(-0.1),
                                                             rel=1e-14)
    # volatility makes the bond dearer (convexity)
    assert reference.vasicek_bond(dict(vas, sigma_r=0.02), 2.0) > math.exp(-0.1)


def test_stock_bond_variance_closed_form():
    vas = {"theta": 0.5, "mu_r": 0.05, "sigma_r": 0.01, "lambda": 0.0,
           "r0": 0.03}
    sigma, rho, t0, t1 = 0.25, 0.2, 1.0, 2.0
    th, sr = vas["theta"], vas["sigma_r"]
    # B(u) = (1 - e^{-th (t1 - u)}) / th integrated by hand over [0, t0]
    e = (math.exp(-th * (t1 - t0)) - math.exp(-th * t1)) / th
    e2 = (math.exp(-2 * th * (t1 - t0)) - math.exp(-2 * th * t1)) / (2 * th)
    int_b = (t0 - e) / th
    int_b2 = (t0 - 2 * e + e2) / th ** 2
    want = sigma ** 2 * t0 + 2 * rho * sigma * sr * int_b + sr ** 2 * int_b2
    got = reference.stock_bond_variance(vas, sigma, rho, t0, t1)
    assert got == pytest.approx(want, rel=1e-12)
