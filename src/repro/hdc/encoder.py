"""The encoder that maps feature vectors into hyperdimensional space.

The paper (Section II-C) uses the OnlineHD-style *nonlinear* encoder: features
are multiplied by a Gaussian random projection matrix and passed through
trigonometric activation functions.  For an input ``x`` of dimension ``f`` and
a target hyperdimension ``D``::

    h_i = cos(w_i . x + b_i) * sin(w_i . x)          with  w_i ~ N(0, 1)^f,  b_i ~ U(0, 2*pi)

This is a random-Fourier-feature style mapping whose projection matrix plays
the role of the Gaussian kernel analysed by the Marchenko–Pastur theory in
:mod:`repro.core.theory`.

:meth:`NonlinearEncoder.slice` returns an encoder over a contiguous block of
another's projection rows (views of its arrays); it serves the partitioning
ablation in which BoostHD weak learners share a single ``D_total``
projection instead of drawing independent ones.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NonlinearEncoder"]


def _trig_encode(
    batch: np.ndarray, basis: np.ndarray, bias: np.ndarray, scale: float
) -> np.ndarray:
    """``cos(p + bias) * sin(p)`` with ``p = batch @ basis.T * scale``.

    Runs the ufuncs of that one-line expression in the same order, so the
    result is bitwise equal to it, but in place: two ``(n, dim)`` arrays are
    alive at the peak instead of four.
    """
    projected = batch @ basis.T
    projected *= scale
    encoded = projected + bias
    np.cos(encoded, out=encoded)
    np.sin(projected, out=projected)
    encoded *= projected
    return encoded


class NonlinearEncoder:
    """OnlineHD nonlinear encoder: Gaussian projection + cos·sin activation.

    Parameters
    ----------
    in_features:
        Number of input features.
    dim:
        Hyperdimensionality ``D`` of the output space.
    bandwidth:
        Kernel bandwidth of the random-Fourier-feature projection.  The raw
        projection ``xW^T`` is divided by ``bandwidth * sqrt(in_features)``
        so that, for standardised features, the argument of the trigonometric
        activations has unit-order variance regardless of the feature count —
        otherwise the implied Gaussian kernel becomes so narrow that encoded
        samples are mutually orthogonal and the model cannot generalise.
    rng:
        Seed or generator controlling the random projection.

    Notes
    -----
    The projection matrix ``basis`` has shape ``(dim, in_features)`` with
    entries drawn from N(0, 1) (the paper's configuration), and ``bias`` is
    uniform on ``[0, 2π)``.  Both are fixed at construction time, so encoding
    is deterministic afterwards.
    """

    def __init__(
        self,
        in_features: int,
        dim: int,
        *,
        bandwidth: float = 1.0,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if in_features <= 0:
            raise ValueError(f"in_features must be positive, got {in_features}")
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        generator = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        self.in_features = int(in_features)
        self.dim = int(dim)
        self.bandwidth = float(bandwidth)
        self.basis = generator.standard_normal((self.dim, self.in_features))
        self.bias = generator.uniform(0.0, 2.0 * np.pi, size=self.dim)

    @classmethod
    def from_params(
        cls, basis: np.ndarray, bias: np.ndarray, *, bandwidth: float = 1.0
    ) -> "NonlinearEncoder":
        """Rebuild an encoder from stored *raw* projection parameters.

        ``basis`` is the un-scaled ``(dim, in_features)`` projection matrix
        (i.e. :attr:`basis`, not the pre-scaled form returned by
        :meth:`projection_params`) and ``bias`` the phase vector.  Used by the
        model registry (:mod:`repro.serving.registry`) to reconstruct a fitted
        model's encoder exactly — no random draws are made, so the rebuilt
        encoder's :meth:`encode` is bit-identical to the original's.
        """
        basis = np.array(basis, dtype=np.float64)
        bias = np.array(bias, dtype=np.float64)
        if basis.ndim != 2:
            raise ValueError(f"basis must be 2-D (dim, in_features), got ndim={basis.ndim}")
        if bias.shape != (basis.shape[0],):
            raise ValueError(
                f"bias shape {bias.shape} does not match basis rows {basis.shape[0]}"
            )
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        return cls._over(basis, bias, bandwidth)

    @classmethod
    def _over(
        cls, basis: np.ndarray, bias: np.ndarray, bandwidth: float
    ) -> "NonlinearEncoder":
        """An encoder over these very arrays: no copy, no random draws."""
        encoder = cls.__new__(cls)
        encoder.in_features = int(basis.shape[1])
        encoder.dim = int(basis.shape[0])
        encoder.bandwidth = float(bandwidth)
        encoder.basis = basis
        encoder.bias = bias
        return encoder

    @property
    def _projection_scale(self) -> float:
        return 1.0 / (self.bandwidth * np.sqrt(self.in_features))

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Map features to hypervectors ``cos(xW^T + b) * sin(xW^T)``.

        Accepts a single sample ``(f,)`` or a batch ``(n, f)`` and returns
        hypervectors of matching rank.
        """
        array = np.asarray(features, dtype=float)
        single = array.ndim == 1
        batch = array[None, :] if single else array
        if batch.ndim != 2:
            raise ValueError(f"expected 1-D or 2-D features, got ndim={array.ndim}")
        if batch.shape[1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} features, got {batch.shape[1]}"
            )
        encoded = _trig_encode(batch, self.basis, self.bias, self._projection_scale)
        return encoded[0] if single else encoded

    def __call__(self, features: np.ndarray) -> np.ndarray:
        return self.encode(features)

    def slice(self, start: int, stop: int) -> "NonlinearEncoder":
        """The encoder of dimensions ``[start, stop)`` of this one.

        Its ``basis`` and ``bias`` are row views of this encoder's arrays
        (no copy) and it keeps this bandwidth, so it evaluates only its own
        projection rows: bitwise a standalone encoder over those rows, and
        this encoder's columns ``[start, stop)`` up to how BLAS rounds a
        column block of a wider product.  A slice of a slice views the
        same root arrays.
        """
        if not 0 <= start < stop <= self.dim:
            raise ValueError(f"invalid slice [{start}, {stop}) for dim {self.dim}")
        return self._over(
            self.basis[start:stop], self.bias[start:stop], self.bandwidth
        )

    def projection_params(self) -> tuple[np.ndarray, np.ndarray]:
        """Stackable ``(basis, bias)`` with the bandwidth scale folded in.

        The returned basis is ``self.basis * _projection_scale``, so consumers
        can compute ``X @ basis.T`` directly without knowing the bandwidth;
        the fused inference engine (:mod:`repro.engine`) stacks every weak
        learner's pair into one projection.
        """
        return self.basis * self._projection_scale, self.bias
