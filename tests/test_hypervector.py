"""Unit tests for sign quantization of hypervectors."""

import numpy as np

from repro.hdc.quantize import bipolarize


class TestBipolarize:
    def test_bipolarize_values(self):
        result = bipolarize(np.array([-0.5, 0.0, 2.0]))
        np.testing.assert_allclose(result, [-1.0, 1.0, 1.0])
