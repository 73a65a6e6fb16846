"""Problem-statement types: validation, covariance assembly, JSON codec."""

import math

import numpy as np
import pytest

from numerkit.errors import DimensionError
from numerkit.model import (
    Convertible,
    Corporate,
    Esop,
    FxStrike,
    PriceQuote,
    Savings,
    covariance,
    covariance_from_loadings,
    json_number,
    json_object,
    product_from_dict,
    product_to_dict,
    quote_to_dict,
    validate,
)
from numerkit.ratecurve import VasicekModel


def _esop(**kw):
    base = dict(beta=0.85, t_reset=0.5, maturity=1.0, sigma=0.2, rate=0.05,
                spot=100.0)
    base.update(kw)
    return Esop(**base)


def _corporate(**kw):
    base = dict(shares=1_000_000, bonds=10_000, conv_rate=2.0, face=1.0,
                sigma_v=0.3, rho=-0.1, maturity=1.0, firm_value=500_000.0,
                vasicek=VasicekModel(theta=0.3, mu_r=0.04, sigma_r=0.01,
                                     lam=0.0, r0=0.03))
    base.update(kw)
    return Corporate(**base)


class TestValidate:
    def test_default_scenarios_are_clean(self):
        specs = [
            _esop(),
            FxStrike(sigma_s=0.2, sigma_x=0.1, rho=0.3, r_d=0.05, r_p=0.03,
                     spot=100.0, fx=1.3, maturity=1.0),
            Savings(sigma_x=0.1, sigma_i=0.05, rho=0.2, r_d=0.04, r_f=0.02,
                    fx=0.25, price_level=1.0, maturity=1.0),
            Convertible(sigma_s=0.25, rho=0.2, conv_date=1.0,
                        bond_maturity=2.0, spot=1.0,
                        vasicek=VasicekModel(theta=0.5, mu_r=0.05,
                                             sigma_r=0.01, lam=0.0, r0=0.03)),
            _corporate(),
        ]
        for spec in specs:
            assert validate(spec) == []

    def test_reset_after_maturity(self):
        out = validate(_esop(t_reset=2.0))
        assert "t_reset must precede maturity" in out

    def test_beta_closed_interval(self):
        assert validate(_esop(beta=0.0)) == []
        assert validate(_esop(beta=1.0)) == []
        assert any("beta" in v for v in validate(_esop(beta=1.01)))
        assert any("beta" in v for v in validate(_esop(beta=-0.01)))

    def test_rho_strictly_inside_unit_interval(self):
        fx = FxStrike(sigma_s=0.2, sigma_x=0.1, rho=1.0, r_d=0.05, r_p=0.03,
                      spot=100.0, fx=1.3, maturity=1.0)
        assert any("rho" in v for v in validate(fx))
        ok = FxStrike(sigma_s=0.2, sigma_x=0.1, rho=-0.999, r_d=0.05,
                      r_p=0.03, spot=100.0, fx=1.3, maturity=1.0)
        assert validate(ok) == []

    def test_corporate_zero_face_and_zero_bonds_allowed(self):
        assert validate(_corporate(face=0.0)) == []
        assert validate(_corporate(bonds=0)) == []

    def test_corporate_bad_counts(self):
        assert any("shares" in v for v in validate(_corporate(shares=0)))
        assert any("bonds" in v for v in validate(_corporate(bonds=-1)))
        assert any("face" in v for v in validate(_corporate(face=-1.0)))

    def test_nonfinite_rejected(self):
        assert any("finite" in v for v in validate(_esop(sigma=math.nan)))

    def test_non_spec_type(self):
        with pytest.raises(TypeError):
            validate(object())


class TestCovariance:
    def test_from_loadings_single_factor(self):
        # L = [[0.2], [0.3]] -> [[0.04, 0.06], [0.06, 0.09]]
        cov = covariance_from_loadings([[0.2], [0.3]])
        assert np.allclose(cov,
                           [[0.04, 0.06], [0.06, 0.09]], atol=1e-16)

    def test_from_loadings_diagonal(self):
        cov = covariance_from_loadings([[0.2, 0.0], [0.0, 0.3]])
        assert np.allclose(cov, [[0.04, 0.0], [0.0, 0.09]],
                           atol=1e-16)

    def test_ragged_loadings_rejected(self):
        with pytest.raises(DimensionError):
            covariance_from_loadings([[0.2], [0.1, 0.3]])

    def test_assets_without_loadings_rejected(self):
        with pytest.raises(DimensionError, match="needs at least one"):
            covariance_from_loadings([[], []])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            covariance([[0.04, 0.02], [0.03, 0.09]])

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            covariance([[0.04, 0.09], [0.09, 0.04]])

    def test_near_overflow_diagonal_kept(self):
        # symmetrised as a / 2 + a' / 2: a + a' would overflow to inf
        cov = covariance([[1e308, 0.0], [0.0, 0.09]])
        assert cov[0, 0] == 1e308

    def test_overflowing_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            covariance([[1e308, 0.0], [0.0, 1e308]])

    def test_overflowing_loadings_rejected(self):
        # L L' overflows; refused as a covariance that is not finite
        with pytest.raises(ValueError, match="finite"):
            covariance_from_loadings([[1e308], [0.3]])

    def test_matrix_is_readonly(self):
        cov = covariance([[0.04, 0.0], [0.0, 0.09]])
        with pytest.raises(ValueError):
            cov[0, 0] = 1.0


class TestJsonCodec:
    def test_round_trip_all_products(self):
        specs = [
            _esop(),
            FxStrike(sigma_s=0.2, sigma_x=0.1, rho=0.3, r_d=0.05, r_p=0.03,
                     spot=100.0, fx=1.3, maturity=1.0),
            Savings(sigma_x=0.1, sigma_i=0.05, rho=0.2, r_d=0.04, r_f=0.02,
                    fx=0.25, price_level=1.0, maturity=1.0),
            Convertible(sigma_s=0.25, rho=0.2, conv_date=1.0,
                        bond_maturity=2.0, spot=1.0,
                        vasicek=VasicekModel(theta=0.5, mu_r=0.05,
                                             sigma_r=0.01, lam=0.0, r0=0.03)),
            _corporate(),
        ]
        for spec in specs:
            assert product_from_dict(product_to_dict(spec)) == spec

    def test_type_tag_and_lambda_key(self):
        d = product_to_dict(_corporate())
        assert d["type"] == "corporate"
        assert d["vasicek"]["lambda"] == 0.0

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            product_from_dict({"type": "swaption"})

    def test_encoding_refuses_what_is_not_a_spec(self):
        with pytest.raises(TypeError, match="not a product spec"):
            product_to_dict(object())

    def test_integer_past_the_float_range_refused(self):
        with pytest.raises(ValueError, match="out of the floating-point range"):
            json_number("x", 10 ** 400)

    def test_missing_field(self):
        d = product_to_dict(_esop())
        d.pop("sigma")
        with pytest.raises(ValueError):
            product_from_dict(d)

    def test_unexpected_field(self):
        d = product_to_dict(_esop())
        d["notional"] = 10.0
        with pytest.raises(ValueError):
            product_from_dict(d)

    @pytest.mark.parametrize("payload", [[1, 2], "esop", None, 3.0])
    def test_non_object_payload(self, payload):
        with pytest.raises(ValueError):
            product_from_dict(payload)

    def test_non_object_vasicek(self):
        d = product_to_dict(_corporate())
        d["vasicek"] = [0.3, 0.04, 0.01, 0.0, 0.03]
        with pytest.raises(ValueError):
            product_from_dict(d)

    @pytest.mark.parametrize("field,value", [
        ("shares", 1.5), ("bonds", 10_000.5), ("shares", True),
        ("shares", "1000000"),
    ])
    def test_non_integral_counts(self, field, value):
        d = product_to_dict(_corporate())
        d[field] = value
        with pytest.raises(ValueError):
            product_from_dict(d)

    def test_integral_float_counts_accepted(self):
        d = product_to_dict(_corporate())
        d["shares"] = 1e6
        spec = product_from_dict(d)
        assert spec.shares == 1_000_000 and isinstance(spec.shares, int)

    @pytest.mark.parametrize("value", [True, False, None, "0.2"])
    def test_non_number_in_numeric_field(self, value):
        d = product_to_dict(_esop())
        d["sigma"] = value
        with pytest.raises(ValueError):
            product_from_dict(d)

    def test_boolean_in_vasicek_block(self):
        d = product_to_dict(_corporate())
        d["vasicek"]["sigma_r"] = True
        with pytest.raises(ValueError):
            product_from_dict(d)

    def test_quote_to_dict_omits_missing(self):
        assert quote_to_dict(PriceQuote(value=1.0, method="analytic")) == {
            "value": 1.0, "method": "analytic"}
        full = quote_to_dict(PriceQuote(value=1.0, method="monte_carlo",
                                        std_error=0.1, seed=7))
        assert full["std_error"] == 0.1 and full["seed"] == 7
        assert list(full) == ["value", "method", "std_error", "seed"]


class TestJsonObject:
    """The one reader of every JSON object numerkit accepts."""

    def test_required_kept_and_missing_default_filled(self):
        data = {"a": 1, "b": 2}
        out = json_object("thing", data, ("a",), {"b": 0, "c": 3})
        assert out == {"a": 1, "b": 2, "c": 3}
        assert data == {"a": 1, "b": 2}  # the input is not changed

    @pytest.mark.parametrize("data,message", [
        ([1], "thing must be a JSON object, got list"),
        ({"b": 2}, "missing field 'a' for thing"),
        ({"a": 1, "z": 0, "y": 0}, r"unexpected fields for thing: \['y', 'z'\]"),
    ], ids=["not_an_object", "missing", "unexpected"])
    def test_refusals(self, data, message):
        with pytest.raises(ValueError, match=message):
            json_object("thing", data, ("a",), {"b": 0})

    @pytest.mark.parametrize("data,message", [
        ({"type": "y"}, "unknown thing type: 'y'"),
        ({"type": ["x"]}, r"unknown thing type: \['x'\]"),
        ({}, "unknown thing type: None"),
        ({"type": "x"}, "missing field 'a' for thing 'x'"),
        ({"type": "x", "a": 1, "b": 2}, r"unexpected fields for thing 'x': \['b'\]"),
    ], ids=["unknown_tag", "unhashable_tag", "no_tag", "missing", "unexpected"])
    def test_tagged_object_takes_the_keys_of_its_tag(self, data, message):
        keys = {"x": ("type", "a"), "z": ("type", "b")}
        with pytest.raises(ValueError, match=message):
            json_object("thing", data, keys)
        assert json_object("thing", {"type": "z", "b": 2}, keys) == {"type": "z", "b": 2}
