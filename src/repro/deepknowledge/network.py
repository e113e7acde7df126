"""A from-scratch NumPy feed-forward classifier with activation access.

Stands in for the tiny YOLOv4 person detector the paper runs on the
Jetson: DeepKnowledge and SafeML only need (a) a trained network, (b) its
per-layer activation traces, and (c) its predictions — all of which this
MLP provides. Training is plain mini-batch SGD with ReLU hidden layers
and a softmax cross-entropy head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for :meth:`FeedForwardNetwork.train`."""

    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.05
    l2: float = 1e-4


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _split(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive views of ``flat`` shaped like each array of ``like``."""
    views = []
    start = 0
    for array in like:
        views.append(flat[start : start + array.size].reshape(array.shape))
        start += array.size
    return views


@dataclass
class FeedForwardNetwork:
    """ReLU MLP classifier with inspectable hidden activations.

    ``layer_sizes`` includes input and output sizes, e.g. ``[8, 32, 16, 2]``
    for an 8-feature binary classifier with two hidden layers.
    """

    layer_sizes: list[int]
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(11))
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        if not self.weights:
            for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
                scale = np.sqrt(2.0 / fan_in)
                self.weights.append(self.rng.normal(0.0, scale, size=(fan_in, fan_out)))
                self.biases.append(np.zeros(fan_out))

    @property
    def n_hidden_layers(self) -> int:
        """Number of hidden (ReLU) layers."""
        return len(self.layer_sizes) - 2

    # -------------------------------------------------------------- forward
    def forward(self, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Full forward pass.

        Returns ``(hidden_activations, probabilities)`` where
        ``hidden_activations[k]`` is the post-ReLU output of hidden layer k,
        shape (n_samples, layer_sizes[k+1]).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        activations: list[np.ndarray] = []
        h = x
        for k in range(self.n_hidden_layers):
            h = np.maximum(0.0, h @ self.weights[k] + self.biases[k])
            activations.append(h)
        logits = h @ self.weights[-1] + self.biases[-1]
        return activations, _softmax(logits)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities, shape (n_samples, n_classes)."""
        return self.forward(x)[1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return np.argmax(self.predict_proba(x), axis=1)

    def activation_trace(self, x: np.ndarray) -> np.ndarray:
        """Concatenated hidden activations per sample — the DNN trace.

        Shape (n_samples, total_hidden_units); this is the object
        DeepKnowledge analyses.
        """
        activations, _ = self.forward(x)
        return np.concatenate(activations, axis=1)

    # --------------------------------------------------------------- train
    def train(
        self, x: np.ndarray, y: np.ndarray, config: TrainConfig | None = None
    ) -> list[float]:
        """Mini-batch SGD on softmax cross-entropy; returns per-epoch loss.

        Every weight and bias lives in one flat float64 buffer (all weights,
        then all biases) and every gradient in a second buffer with the
        same layout, so the L2 term and the SGD update are one elementwise
        call each per step instead of four per layer. Each element sees the
        same operations in the same order as in a per-layer update, so the
        result is bit-identical. Updating after the whole backward pass is
        safe: each layer's backprop reads its weights before a per-layer
        loop would change them. ``self.weights`` and ``self.biases`` are
        views into the buffer while training; the result is then copied
        back into the original arrays.
        """
        config = config or TrainConfig()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=int).ravel()
        n_classes = self.layer_sizes[-1]
        if y.min() < 0 or y.max() >= n_classes:
            raise ValueError("labels out of range for the output layer")
        one_hot = np.eye(n_classes)[y]
        arrays = self.weights + self.biases
        params = np.concatenate([a.ravel() for a in arrays], dtype=float)
        grads = np.empty_like(params)
        n_weights = sum(w.size for w in self.weights)
        param_views = _split(params, arrays)
        grad_views = _split(grads, arrays)
        n_layers = len(self.weights)
        weights, biases = param_views[:n_layers], param_views[n_layers:]
        grad_w, grad_b = grad_views[:n_layers], grad_views[n_layers:]
        flat_w, flat_gw = params[:n_weights], grads[:n_weights]
        original = (self.weights, self.biases)
        self.weights, self.biases = weights, biases
        losses = []
        n = x.shape[0]
        try:
            for _ in range(config.epochs):
                order = self.rng.permutation(n)
                x_epoch, y_epoch = x[order], one_hot[order]
                epoch_loss = 0.0
                for start in range(0, n, config.batch_size):
                    xb = x_epoch[start : start + config.batch_size]
                    yb = y_epoch[start : start + config.batch_size]
                    # Forward, keeping activations for backprop. The
                    # in-place steps compute what _softmax and forward do.
                    hs = [xb]
                    h = xb
                    for k in range(self.n_hidden_layers):
                        h = h @ weights[k]
                        h += biases[k]
                        np.maximum(0.0, h, out=h)
                        hs.append(h)
                    z = h @ weights[-1]
                    z += biases[-1]
                    z -= z.max(axis=1, keepdims=True)
                    probs = np.exp(z, out=z)
                    probs /= probs.sum(axis=1, keepdims=True)
                    log_p = probs + 1e-12
                    np.log(log_p, out=log_p)
                    log_p *= yb
                    epoch_loss += -log_p.sum()
                    # Backward into the gradient buffer, then one update.
                    grad = probs - yb
                    grad /= len(xb)
                    for k in range(n_layers - 1, -1, -1):
                        np.matmul(hs[k].T, grad, out=grad_w[k])
                        grad.sum(axis=0, out=grad_b[k])
                        if k > 0:
                            grad = grad @ weights[k].T
                            grad *= hs[k] > 0.0
                    flat_gw += config.l2 * flat_w
                    params -= config.learning_rate * grads
                losses.append(epoch_loss / n)
        finally:
            self.weights, self.biases = original
            for array, view in zip(arrays, param_views):
                array[...] = view
        return losses

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Fraction of correct hard predictions."""
        return float(np.mean(self.predict(x) == np.asarray(y).ravel()))
