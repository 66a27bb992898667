"""Unit tests for the fixed-point quantizer."""

import numpy as np
import pytest

from repro.hdc import from_fixed_point, quantize_codes
from repro.hdc.quantize import SCHEME_BITS, SCHEME_DTYPES


class TestFixedPointFormat:
    def test_code_range(self):
        assert SCHEME_BITS == {"fixed16": 16, "fixed8": 8}
        codes, _ = quantize_codes(np.linspace(-10, 10, 100), "fixed8")
        assert codes.max() == np.iinfo(SCHEME_DTYPES["fixed8"]).max == 127
        assert codes.min() == -127

    def test_invalid_scale_raises(self):
        for scale in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="scale must be positive"):
                from_fixed_point(np.ones(3, dtype=np.int16), scale)


class TestFixedPointRoundTrip:
    def test_roundtrip_error_small(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000)
        codes, scale = quantize_codes(values, "fixed16")
        recovered = from_fixed_point(codes, scale)
        assert np.max(np.abs(recovered - values)) < 2 * scale

    def test_codes_within_range(self):
        values = np.linspace(-10, 10, 100)
        codes, _ = quantize_codes(values, "fixed8")
        assert codes.dtype == np.int8
        assert -128 <= codes.min() and codes.max() <= 127

    def test_infer_scale_covers_max(self):
        values = np.array([0.1, -3.0, 2.0])
        codes, scale = quantize_codes(values, "fixed16")
        assert abs(3.0 / scale) <= np.iinfo(np.int16).max + 1
        assert codes[1] == -np.iinfo(np.int16).max

    def test_zero_array(self):
        codes, scale = quantize_codes(np.zeros(5))
        np.testing.assert_array_equal(from_fixed_point(codes, scale), np.zeros(5))


class TestQuantizeModel:
    """Class hypervectors quantize through ``quantize_codes`` +
    ``from_fixed_point`` (what the engines store)."""

    def test_fixed_schemes_preserve_shape_and_sign(self):
        rng = np.random.default_rng(0)
        model = rng.standard_normal((3, 50))
        for scheme in ("fixed16", "fixed8"):
            codes, scale = quantize_codes(model, scheme)
            assert codes.dtype == SCHEME_DTYPES[scheme]
            quantized = from_fixed_point(codes, scale)
            assert quantized.shape == model.shape
            # Signs agree wherever the magnitude is not negligible.
            mask = np.abs(model) > 0.1
            assert np.all(np.sign(quantized[mask]) == np.sign(model[mask]))

    def test_fixed16_more_accurate_than_fixed8(self):
        rng = np.random.default_rng(1)
        model = rng.standard_normal((2, 200))
        error16 = np.abs(from_fixed_point(*quantize_codes(model, "fixed16")) - model).mean()
        error8 = np.abs(from_fixed_point(*quantize_codes(model, "fixed8")) - model).mean()
        assert error16 < error8

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="int4"):
            quantize_codes(np.ones((2, 2)), "int4")
