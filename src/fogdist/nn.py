"""Minimal fully-connected value network with hand-derived gradients.

Forward pass for layer l: z_l = W_l a_{l-1} + b_l, a_l = relu(z_l) on the
hidden layers and identity on the output.  Training only ever regresses the
output of a single action toward a scalar target, and `sgd_step` does it in
one pass: it checks its inputs, runs forward keeping every activation,
checks the loss (target - q[action])**2 before any gradient, propagates the
deltas down, then moves row `action` of the output weights, that action's
output bias and every hidden layer.  Plain gradient descent, float64
throughout; weights and biases serialise to a JSON-ready dict whose floats
round-trip exactly.  The dict is stored only inside an agent checkpoint,
which also holds what the layer sizes follow from.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import record_from_dict


@dataclass(frozen=True)
class _SerialisedNetwork:
    """The JSON form of a `QNetwork`, as `record_from_dict` type-checks it."""

    weights: tuple[tuple[tuple[float, ...], ...], ...]
    biases: tuple[tuple[float, ...], ...]


def _checked_sizes(sizes) -> tuple[int, ...]:
    sizes = tuple(sizes)
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError(f"layer sizes must be two or more, each >= 1, got {sizes}")
    return sizes


class QNetwork:
    """Feed-forward action-value network; `sizes` are its layer widths, input
    first and one output per action last."""

    def __init__(self, sizes: tuple[int, ...],
                 weights: list[np.ndarray], biases: list[np.ndarray]):
        sizes = _checked_sizes(sizes)
        layers = len(sizes) - 1
        if len(weights) != layers or len(biases) != layers:
            raise ValueError(f"expected {layers} weight matrices and bias vectors, "
                             f"got {len(weights)} and {len(biases)}")
        for i, (w, b) in enumerate(zip(weights, biases)):
            shapes = ((sizes[i + 1], sizes[i]), (sizes[i + 1],))
            if (w.shape, b.shape) != shapes:
                raise ValueError(f"layer {i}: expected weight and bias shapes {shapes}, "
                                 f"got {(w.shape, b.shape)}")
        self.sizes = sizes
        self.weights = weights
        self.biases = biases

    @classmethod
    def initialize(cls, sizes: tuple[int, ...], seed: int = 0) -> "QNetwork":
        """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
        sizes = _checked_sizes(sizes)
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out, dtype=np.float64))
        return cls(sizes, weights, biases)

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.sizes[0],):
            raise ValueError(f"input must have shape ({self.sizes[0]},), got {x.shape}")
        return x

    def forward(self, x) -> np.ndarray:
        """Action values for one state."""
        a = self._check_input(x)
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(w.dot(a) + b, 0.0)
        return self.weights[-1].dot(a) + self.biases[-1]

    def sgd_step(self, x, action: int, target: float, learning_rate: float) -> float:
        """One descent step on the single-action squared error; returns the pre-step loss.

        Every gradient comes from the weights as they stood before the step.
        A pre-step loss that is not finite means training has diverged: the
        step raises a ValueError before any gradient or parameter write.
        """
        if not 0 < learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        x = self._check_input(x)
        if not 0 <= action < self.sizes[-1]:
            raise ValueError(f"action must lie in [0, {self.sizes[-1]}), got {action!r}")
        if not math.isfinite(target):
            raise ValueError(f"target must be finite, got {target!r}")
        # acts: the input, then each hidden layer's output, lowest first.
        acts = [x]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            acts.append(np.maximum(w.dot(acts[-1]) + b, 0.0))
        # q from the full output product: a row dot product rounds differently.
        # As Python floats, a loss beyond float64 reads inf with no warning.
        q = float((self.weights[-1].dot(acts[-1]) + self.biases[-1])[action])
        diff = target - q
        loss = diff * diff
        if not math.isfinite(loss):
            raise ValueError(f"training diverged at learning_rate={learning_rate!r}: "
                             f"a step's loss is {loss!r}")
        # Backward from d = dL/dq[action]; deltas[i] = dL/dz of hidden layer i.
        d = 2.0 * (q - target)
        deltas = [None] * (len(acts) - 1)
        delta = self.weights[-1][action] * d
        for i in range(len(deltas) - 1, -1, -1):
            delta = delta * (acts[i + 1] > 0)
            deltas[i] = delta
            if i > 0:
                delta = delta.dot(self.weights[i])
        # Only row `action` of the output layer has a gradient; a hidden
        # layer's weight gradient is outer(delta, input), its bias's delta.
        self.weights[-1][action] -= learning_rate * (d * acts[-1])
        self.biases[-1][action] -= learning_rate * d
        for w, b, delta, a in zip(self.weights, self.biases, deltas, acts):
            w -= learning_rate * (delta[:, None] * a)
            b -= learning_rate * delta
        return loss

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """The parameters only: the layer sizes are the caller's to record."""
        return {
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, data: dict, sizes: tuple[int, ...],
                  where: str = "network") -> "QNetwork":
        """Rebuild a network of layer `sizes` from `to_dict` output: every
        value type-checked, and finite parameters of the shapes the sizes
        ask for.  Every error is a ValueError naming ``where``."""
        read = record_from_dict(_SerialisedNetwork, data, where)
        try:
            weights = [np.array(w, dtype=np.float64) for w in read.weights]
            biases = [np.array(b, dtype=np.float64) for b in read.biases]
            network = cls(sizes, weights, biases)
        except (ValueError, OverflowError) as exc:   # overflow: an integer beyond float64
            raise ValueError(f"{where}: malformed parameters ({exc})") from None
        if not all(np.isfinite(p).all() for p in weights + biases):
            raise ValueError(f"{where}: weights and biases must be finite")
        return network
