"""Fully-connected neural network (the paper's "DNN" baseline) in numpy.

The paper's DNN uses four linear layers with widths ``[2048, 1024, 512,
classes]``, ReLU activations, dropout and a learning rate of 0.001 — i.e. an
MLP trained with Adam on softmax cross-entropy.  This module implements that
architecture with explicit forward/backward passes so the bit-flip robustness
experiment (Figure 8) can perturb its weight matrices the same way it perturbs
HDC class hypervectors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import BaseClassifier

__all__ = ["MLPClassifier"]


def _softmax(raw_scores: np.ndarray) -> np.ndarray:
    shifted = raw_scores - raw_scores.max(axis=1, keepdims=True)
    exponent = np.exp(shifted)
    return exponent / exponent.sum(axis=1, keepdims=True)


class MLPClassifier(BaseClassifier):
    """Multi-layer perceptron with ReLU, inverted dropout and Adam.

    Parameters
    ----------
    hidden_layers:
        Widths of the hidden layers.  The paper uses ``(2048, 1024, 512)``;
        the default is a smaller stack so unit tests stay fast — the
        experiment harness passes the paper configuration explicitly.
    lr:
        Adam learning rate (paper: 0.001).
    epochs:
        Training epochs.
    batch_size:
        Mini-batch size.
    dropout:
        Dropout probability applied after each hidden activation.
    seed:
        Seed for initialisation, shuffling and dropout masks.
    """

    def __init__(
        self,
        hidden_layers: Sequence[int] = (128, 64),
        *,
        lr: float = 1e-3,
        epochs: int = 30,
        batch_size: int = 32,
        dropout: float = 0.1,
        seed: int | None = None,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {dropout}")
        if any(width < 1 for width in hidden_layers):
            raise ValueError("hidden layer widths must be positive")
        self.hidden_layers = tuple(int(width) for width in hidden_layers)
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.dropout = float(dropout)
        self.seed = seed
        self.weights_: list[np.ndarray] | None = None
        self.biases_: list[np.ndarray] | None = None
        self.classes_: np.ndarray | None = None

    # --------------------------------------------------------------- set-up
    def _initialize(self, n_features: int, n_classes: int, rng: np.random.Generator) -> None:
        widths = [n_features, *self.hidden_layers, n_classes]
        self.weights_ = []
        self.biases_ = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            # He initialisation suits ReLU activations.
            scale = np.sqrt(2.0 / fan_in)
            self.weights_.append(rng.standard_normal((fan_in, fan_out)) * scale)
            self.biases_.append(np.zeros(fan_out))

    # ------------------------------------------------------------- training
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "MLPClassifier":
        X, y = self._validate_fit_args(X, y)
        weights = self._validate_sample_weight(sample_weight, len(y)) * len(y)
        rng = np.random.default_rng(self.seed)
        self.classes_ = np.unique(y)
        label_index = np.searchsorted(self.classes_, y)
        self._initialize(X.shape[1], len(self.classes_), rng)

        # Adam state (one slot per parameter tensor, weights then biases).
        first_moment = [np.zeros_like(w) for w in self.weights_] + [
            np.zeros_like(b) for b in self.biases_
        ]
        second_moment = [np.zeros_like(m) for m in first_moment]
        beta1, beta2, epsilon = 0.9, 0.999, 1e-8
        step = 0

        for _ in range(self.epochs):
            order = rng.permutation(len(y))
            for start in range(0, len(y), self.batch_size):
                batch = order[start : start + self.batch_size]
                gradients = self._batch_gradients(
                    X[batch], label_index[batch], weights[batch], rng
                )
                step += 1
                parameters = self.weights_ + self.biases_
                for slot, (parameter, gradient) in enumerate(zip(parameters, gradients)):
                    first_moment[slot] = beta1 * first_moment[slot] + (1 - beta1) * gradient
                    second_moment[slot] = (
                        beta2 * second_moment[slot] + (1 - beta2) * gradient**2
                    )
                    corrected_first = first_moment[slot] / (1 - beta1**step)
                    corrected_second = second_moment[slot] / (1 - beta2**step)
                    parameter -= self.lr * corrected_first / (
                        np.sqrt(corrected_second) + epsilon
                    )
        return self

    def _batch_gradients(
        self,
        inputs: np.ndarray,
        label_index: np.ndarray,
        sample_weight: np.ndarray,
        rng: np.random.Generator,
    ) -> list[np.ndarray]:
        """Forward + backward pass; returns gradients for weights then biases."""
        activations = [inputs]
        dropout_masks: list[np.ndarray | None] = []
        hidden = inputs
        last_layer = len(self.weights_) - 1
        for layer, (weight, bias) in enumerate(zip(self.weights_, self.biases_)):
            pre_activation = hidden @ weight + bias
            if layer < last_layer:
                hidden = np.maximum(pre_activation, 0.0)
                if self.dropout > 0.0:
                    mask = (rng.random(hidden.shape) >= self.dropout) / (1.0 - self.dropout)
                    hidden = hidden * mask
                    dropout_masks.append(mask)
                else:
                    dropout_masks.append(None)
                activations.append(hidden)
            else:
                hidden = pre_activation

        probabilities = _softmax(hidden)
        batch_size = len(inputs)
        delta = probabilities.copy()
        delta[np.arange(batch_size), label_index] -= 1.0
        delta *= sample_weight[:, None] / batch_size

        weight_gradients: list[np.ndarray] = [None] * len(self.weights_)
        bias_gradients: list[np.ndarray] = [None] * len(self.biases_)
        for layer in range(last_layer, -1, -1):
            weight_gradients[layer] = activations[layer].T @ delta
            bias_gradients[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ self.weights_[layer].T
                mask = dropout_masks[layer - 1]
                if mask is not None:
                    delta = delta * mask
                delta = delta * (activations[layer] > 0.0)
        return weight_gradients + bias_gradients

    # ------------------------------------------------------------ inference
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw logits of the network (dropout disabled)."""
        self._check_fitted("weights_")
        X = self._validate_predict_args(X)
        hidden = X
        last_layer = len(self.weights_) - 1
        for layer, (weight, bias) in enumerate(zip(self.weights_, self.biases_)):
            hidden = hidden @ weight + bias
            if layer < last_layer:
                hidden = np.maximum(hidden, 0.0)
        return hidden

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        logits = self.decision_function(X)
        return self.classes_[np.argmax(logits, axis=1)]
