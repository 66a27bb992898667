"""Encoders that map feature vectors into hyperdimensional space.

The paper (Section II-C) uses the OnlineHD-style *nonlinear* encoder: features
are multiplied by a Gaussian random projection matrix and passed through
trigonometric activation functions.  For an input ``x`` of dimension ``f`` and
a target hyperdimension ``D``::

    h_i = cos(w_i . x + b_i) * sin(w_i . x)          with  w_i ~ N(0, 1)^f,  b_i ~ U(0, 2*pi)

This is a random-Fourier-feature style mapping whose projection matrix plays
the role of the Gaussian kernel analysed by the Marchenko–Pastur theory in
:mod:`repro.core.theory`.

:class:`SlicedEncoder` is a contiguous dimension slice of another encoder,
encoding with only its own rows of the parent projection; it serves the
partitioning ablation in which BoostHD weak learners share a single
``D_total`` projection instead of drawing independent ones.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

__all__ = [
    "Encoder",
    "NonlinearEncoder",
    "SlicedEncoder",
    "ProjectionParams",
]


class ProjectionParams(NamedTuple):
    """Linear-algebra internals of a trigonometric random-projection encoder.

    ``basis`` is the *pre-scaled* projection matrix of shape ``(dim,
    in_features)`` (bandwidth normalisation already folded in) and ``bias`` the
    phase vector of shape ``(dim,)``, so that the encoding of a batch ``X`` is
    exactly ``cos(X @ basis.T + bias) * sin(X @ basis.T)``.  The fused
    inference engine (:mod:`repro.engine`) stacks these blocks from every weak
    learner into one projection and encodes a batch once for the whole
    ensemble.
    """

    basis: np.ndarray
    bias: np.ndarray


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


class Encoder(ABC):
    """Abstract mapping from feature space to hyperdimensional space.

    Concrete encoders expose ``dim`` (output hyperdimension), ``in_features``
    (expected input width) and :meth:`encode`, which accepts a single sample
    ``(f,)`` or a batch ``(n, f)`` and returns hypervectors of matching rank.
    """

    #: Output hyperdimensionality.
    dim: int
    #: Expected number of input features.
    in_features: int

    @abstractmethod
    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode features into hypervectors."""

    def __call__(self, features: np.ndarray) -> np.ndarray:
        return self.encode(features)

    def _validate(self, features: np.ndarray) -> tuple[np.ndarray, bool]:
        """Coerce input to a 2-D batch, remembering whether it was a vector."""
        array = np.asarray(features, dtype=float)
        single = array.ndim == 1
        batch = array[None, :] if single else array
        if batch.ndim != 2:
            raise ValueError(f"expected 1-D or 2-D features, got ndim={array.ndim}")
        if batch.shape[1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} features, got {batch.shape[1]}"
            )
        return batch, single


class NonlinearEncoder(Encoder):
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
        """Map features to hypervectors ``cos(xW^T + b) * sin(xW^T)``."""
        batch, single = self._validate(features)
        encoded = _trig_encode(batch, self.basis, self.bias, self._projection_scale)
        return encoded[0] if single else encoded

    def slice(self, start: int, stop: int) -> "SlicedEncoder":
        """Return a view encoder restricted to dimensions ``[start, stop)``."""
        return SlicedEncoder(self, start, stop)

    def projection_params(self) -> ProjectionParams:
        """Stackable ``(basis, bias)`` with the bandwidth scale folded in.

        The returned basis is ``self.basis * _projection_scale``, so consumers
        can compute ``X @ basis.T`` directly without knowing the bandwidth.
        """
        return ProjectionParams(
            basis=self.basis * self._projection_scale, bias=self.bias.copy()
        )


class SlicedEncoder(Encoder):
    """Encoder exposing a contiguous dimension slice of a parent encoder.

    Used for the "shared projection" partitioning strategy: weak learner ``i``
    sees dimensions ``[i * D/n, (i+1) * D/n)`` of one ``D_total`` encoder,
    and encoding it costs only those ``D/n`` projection rows.
    """

    def __init__(self, parent: Encoder, start: int, stop: int) -> None:
        if not 0 <= start < stop <= parent.dim:
            raise ValueError(
                f"invalid slice [{start}, {stop}) for parent dim {parent.dim}"
            )
        self.parent = parent
        self.start = int(start)
        self.stop = int(stop)
        self.dim = self.stop - self.start
        self.in_features = parent.in_features

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode with rows ``[start, stop)`` of the flattened root's projection.

        Over a :class:`NonlinearEncoder` root only this slice's own
        projection rows are evaluated, exactly as a standalone encoder with
        those rows would (:func:`_trig_encode` on ``basis[start:stop]``,
        ``bias[start:stop]`` and the root's scale).  That equals the root's
        encoding columns ``[start, stop)`` up to how BLAS rounds a column
        block of a wider product — bit for bit at the paper's partition
        layout, not for every shape.  Other roots encode in full and are
        sliced.
        """
        root, start, stop = self.flatten()
        if not isinstance(root, NonlinearEncoder):
            return self.parent.encode(features)[..., self.start : self.stop]
        batch, single = self._validate(features)
        encoded = _trig_encode(
            batch, root.basis[start:stop], root.bias[start:stop], root._projection_scale
        )
        return encoded[0] if single else encoded

    def flatten(self) -> tuple[Encoder, int, int]:
        """Resolve nested slices to ``(root_encoder, start, stop)``.

        A slice of a slice collapses into a single offset into the innermost
        non-sliced encoder, which is what the fused engine needs both to
        extract the right projection rows and to detect when several weak
        learners share one parent projection.
        """
        encoder: Encoder = self
        start, stop = self.start, self.stop
        while isinstance(encoder, SlicedEncoder):
            parent = encoder.parent
            if isinstance(parent, SlicedEncoder):
                start += parent.start
                stop += parent.start
            encoder = parent
        return encoder, start, stop

    def projection_params(self) -> ProjectionParams:
        """Projection rows ``[start, stop)`` of the flattened root encoder."""
        root, start, stop = self.flatten()
        if not isinstance(root, NonlinearEncoder):
            raise TypeError(
                f"{type(root).__name__} does not expose projection parameters; "
                "only trigonometric random-projection encoders can be fused"
            )
        basis, bias = root.projection_params()
        return ProjectionParams(basis=basis[start:stop], bias=bias[start:stop])

