"""A 400-64-32-4 multilayer perceptron with hand-written backprop.

The parameters theta, and every gradient, are one contiguous float64 vector
in checkpoint order W1, b1, W2, b2, W3, b3 (each row-major); W_l maps layer
l-1 activations to layer l, and :func:`layers` gives the blocks as views.
ReLU hidden layers, softmax output, mean cross-entropy (natural log) loss.
Everything is double precision.  No theta a caller holds (a checkpoint, a
snapshot, a worker's start point) is ever written: :func:`grad` returns a new
vector that the caller owns, and the SGD step (``add_scaled`` with ``out=``
that vector) overwrites only it.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

LAYER_SIZES = (400, 64, 32, 4)
# 400*64 + 64 + 64*32 + 32 + 32*4 + 4
PARAM_COUNT = 27_876
PROB_FLOOR = 1e-15

# (slice of theta, shape) of W1, b1, W2, b2, W3, b3, with Python-int bounds
_SHAPES = [s for d_in, d_out in zip(LAYER_SIZES, LAYER_SIZES[1:]) for s in ((d_out, d_in), (d_out,))]
_OFFSETS = [0, *itertools.accumulate(math.prod(s) for s in _SHAPES)]
_BLOCKS = [(slice(a, b), s) for a, b, s in zip(_OFFSETS, _OFFSETS[1:], _SHAPES)]


@dataclass(frozen=True)
class MiniBatch:
    """A batch of standardized feature rows with integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.inputs.ndim != 2 or len(self.inputs) != len(self.labels) or len(self.labels) < 1:
            raise ValueError("batch needs matching, nonempty inputs and labels")


def layers(theta: np.ndarray) -> list[np.ndarray]:
    """[W1, b1, W2, b2, W3, b3] as reshaped views of theta: writing a view
    writes theta."""
    return [theta[s].reshape(shape) for s, shape in _BLOCKS]


def init(rng: np.random.Generator) -> np.ndarray:
    """He-normal weights (sd = sqrt(2 / fan_in)), zero biases; W1, W2, W3
    are drawn in that order."""
    theta = np.zeros(PARAM_COUNT)
    for W in layers(theta)[::2]:
        W[...] = rng.standard_normal(W.shape) * np.sqrt(2.0 / W.shape[1])
    return theta


def _forward_pass(views: list[np.ndarray], x: np.ndarray):
    W1, b1, W2, b2, W3, b3 = views
    z1 = x @ W1.T
    z1 += b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ W2.T
    z2 += b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ W3.T
    z3 += b3
    z3 -= z3.max(axis=-1, keepdims=True)
    probs = np.exp(z3, out=z3)
    probs /= probs.sum(axis=-1, keepdims=True)
    return z1, a1, z2, a2, probs


def forward(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities for a single input (400,) or a batch (B, 400)."""
    probs = _forward_pass(layers(theta), np.atleast_2d(x))[-1]
    return probs[0] if x.ndim == 1 else probs


def loss(theta: np.ndarray, batch: MiniBatch) -> float:
    """Mean cross-entropy -ln p_label; probabilities floored at 1e-15."""
    probs = _forward_pass(layers(theta), batch.inputs)[-1]
    picked = probs[np.arange(len(batch.labels)), batch.labels]
    return float(-np.mean(np.log(np.clip(picked, PROB_FLOOR, 1.0))))


def grad(theta: np.ndarray, batch: MiniBatch) -> np.ndarray:
    """Backprop gradient of :func:`loss`, laid out like theta; ReLU
    subgradient at 0 taken as 0.

    The result is a new vector that no one else holds, so the caller owns it
    and may overwrite it (the SGD step writes its update there).
    """
    X, y = batch.inputs, batch.labels
    B = len(y)
    views = layers(theta)
    W2, W3 = views[2], views[4]
    z1, a1, z2, a2, delta3 = _forward_pass(views, X)
    g = np.empty(PARAM_COUNT)
    gW1, gb1, gW2, gb2, gW3, gb3 = layers(g)
    delta3[np.arange(B), y] -= 1.0
    delta3 /= B
    np.matmul(delta3.T, a2, out=gW3)
    delta3.sum(axis=0, out=gb3)
    delta2 = delta3 @ W3
    delta2 *= z2 > 0.0
    np.matmul(delta2.T, a1, out=gW2)
    delta2.sum(axis=0, out=gb2)
    delta1 = delta2 @ W2
    delta1 *= z1 > 0.0
    np.matmul(delta1.T, X, out=gW1)
    delta1.sum(axis=0, out=gb1)
    return g


def predict(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Argmax class indices for a batch of inputs."""
    return np.argmax(forward(theta, x), axis=-1)


def add_scaled(p: np.ndarray, q: np.ndarray, coeff: float, out: np.ndarray | None = None) -> np.ndarray:
    """p + coeff * q, as a new vector, or written into ``out`` and returned.

    ``out`` may be q (its values are consumed) but never p, which is read
    after out is first written.  Both forms do the same two IEEE operations
    in the same order, so they agree bit for bit.
    """
    if out is None:
        return p + coeff * q
    if np.may_share_memory(out, p):
        raise ValueError("add_scaled cannot write into p")
    np.multiply(q, coeff, out=out)
    return np.add(p, out, out=out)


def average(thetas: list[np.ndarray]) -> np.ndarray:
    """Unweighted mean of a nonempty list of parameter vectors."""
    if not thetas:
        raise ValueError("cannot average an empty list")
    return sum(thetas) / len(thetas)


def to_vector(theta: np.ndarray) -> np.ndarray:
    """The canonical flat form, which theta already is: returned unchanged."""
    return theta


def from_vector(vec: np.ndarray) -> np.ndarray:
    """A float64 copy of a PARAM_COUNT-element vector, as a theta."""
    if vec.size != PARAM_COUNT:
        raise ValueError(f"expected {PARAM_COUNT} values, got {vec.size}")
    return np.array(vec, dtype=np.float64).reshape(PARAM_COUNT)


# Checkpoint format: one ASCII header line, then PARAM_COUNT little-endian
# float64 values in canonical flattening order.
_CKPT_HEADER = f"risfed-mlp-v1 layers={','.join(map(str, LAYER_SIZES))} dtype=<f8 count={PARAM_COUNT}\n"


def save_params(theta: np.ndarray, path: str) -> None:
    with open(path, "wb") as f:
        f.write(_CKPT_HEADER.encode("ascii"))
        f.write(to_vector(theta).astype("<f8").tobytes())


def load_params(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        header = f.readline().decode("ascii")
        if header != _CKPT_HEADER:
            raise ValueError(f"unsupported checkpoint header: {header!r}")
        payload = f.read()
    expected = PARAM_COUNT * struct.calcsize("<d")
    if len(payload) != expected:
        raise ValueError(f"checkpoint payload is {len(payload)} bytes, expected {expected}")
    return from_vector(np.frombuffer(payload, dtype="<f8"))
