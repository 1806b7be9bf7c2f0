"""Dense feed-forward softmax classifier, built directly on numpy.

Forward pass, cross-entropy loss, backpropagation, Adam, and Xavier
initialization are all implemented here in 64-bit floats: the network is
small (~100k parameters) and exact doubles keep the finite-difference
gradient oracle tight.

Conventions: weights are (out, in) matrices, activations are row vectors,
ReLU's derivative at 0 is 0, and batch gradients are the mean of
per-example gradients.

All parameters live in one float64 vector in file order (W0 row-major, b0,
W1, b1, ...); gradients and Adam's moments are vectors of the same shape.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .encoding import FULL_MASK, Cursor, FeatureGroupMask, apply_mask, write_str
from .errors import CompatibilityError, FormatError

DEFAULT_LAYER_SIZES = (210, 128, 128, 128, 128, 58)

PROBABILITY_FLOOR = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetworkTopology:
    layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES

    def __post_init__(self):
        if len(self.layer_sizes) < 3:
            raise ValueError("need at least one hidden layer")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum((i + 1) * o for i, o in zip(sizes[:-1], sizes[1:]))

    def layer_views(self, flat: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(W, b) views of a parameter-shaped vector, layer by layer."""
        views, pos = [], 0
        sizes = self.layer_sizes
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            W = flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in)
            pos += fan_out * fan_in
            views.append((W, flat[pos : pos + fan_out]))
            pos += fan_out
        return tuple(views)


@dataclass(frozen=True)
class ModelMeta:
    """Pipeline fingerprint a trained model carries: which catalog and
    normalization table encoded its inputs, and the feature mask it saw."""

    catalog_hash: str = ""
    norms_hash: str = ""
    mask: FeatureGroupMask = field(default_factory=FeatureGroupMask)


@dataclass(frozen=True)
class Network:
    topology: NetworkTopology
    params: np.ndarray  # float64, (topology.n_params,), in file order
    meta: ModelMeta = field(default_factory=ModelMeta)

    @cached_property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(W, b) views into params: writing to them writes to params."""
        return self.topology.layer_views(self.params)

    def model_version(self) -> str:
        return hashlib.sha256(self.params.astype(">f8").tobytes()).hexdigest()[:12]


def check_compatibility(net: Network, catalog_hash: str, norms_hash: str) -> None:
    """Raise CompatibilityError unless the model was trained on data encoded
    with the catalog and normalization table of these content hashes (a
    model that records no hash passes)."""
    if net.meta.catalog_hash and net.meta.catalog_hash != catalog_hash:
        raise CompatibilityError(
            "model was trained with a different catalog "
            f"({net.meta.catalog_hash} != {catalog_hash})"
        )
    if net.meta.norms_hash and net.meta.norms_hash != norms_hash:
        raise CompatibilityError(
            "model was trained with a different normalization table "
            f"({net.meta.norms_hash} != {norms_hash})"
        )


def init_network(
    topology: NetworkTopology = NetworkTopology(),
    seed: int = 0,
    meta: ModelMeta | None = None,
) -> Network:
    """Xavier-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    params = np.zeros(topology.n_params, dtype=np.float64)
    for W, _ in topology.layer_views(params):
        limit = math.sqrt(6.0 / sum(W.shape))
        W[...] = rng.uniform(-limit, limit, size=W.shape)
    return Network(topology=topology, params=params, meta=meta or ModelMeta())


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_cached(net: Network, X: np.ndarray):
    """Returns (pre-activations per layer, post-activations per layer, probs)."""
    zs, activations = [], [X]
    a = X
    last = len(net.layers) - 1
    for i, (W, b) in enumerate(net.layers):
        z = a @ W.T + b
        zs.append(z)
        a = _softmax(z) if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return zs, activations, a


def _check_input(net: Network, X: np.ndarray) -> np.ndarray:
    """X as float64, with the groups the model's mask excludes zeroed in a
    copy, so a masked model never reads features it was not trained on."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != net.topology.input_size:
        raise ValueError(
            f"input has {X.shape[-1]} features, network expects "
            f"{net.topology.input_size}"
        )
    return X if net.meta.mask == FULL_MASK else apply_mask(X, net.meta.mask)


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Class distribution for one input vector. Non-negative, sums to 1."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"forward expects a single vector, got shape {x.shape}")
    return forward_batch(net, x[None, :])[0]


def forward_batch(net: Network, X: np.ndarray) -> np.ndarray:
    X = _check_input(net, X)
    if X.ndim != 2:
        raise ValueError(f"forward_batch expects (n, features), got shape {X.shape}")
    _, _, probs = _forward_cached(net, X)
    return probs


def loss(dist: np.ndarray, target_class: int) -> float:
    """Cross entropy of one prediction: -log p(target), floored at 1e-12."""
    if not 0 <= target_class < len(dist):
        raise ValueError(f"target class {target_class} out of range")
    return -math.log(max(float(dist[target_class]), PROBABILITY_FLOOR))


def batch_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    picked = probs[np.arange(len(targets)), targets]
    return float(-np.log(np.maximum(picked, PROBABILITY_FLOOR)).mean())


def backward_batch(
    net: Network, X: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss, batch probabilities, and the mean of the per-example
    gradients, shaped like params."""
    X = _check_input(net, X)
    zs, activations, probs = _forward_cached(net, X)
    n = X.shape[0]
    mean_loss = batch_loss(probs, targets)
    # Softmax + cross entropy: output pre-activation gradient is probs - onehot.
    delta = probs.copy()
    delta[np.arange(n), targets] -= 1.0
    delta /= n
    grads = np.empty_like(net.params)
    grad_views = net.topology.layer_views(grads)
    for i in range(len(net.layers) - 1, -1, -1):
        dW, db = grad_views[i]
        # Computed as (a.T @ delta).T because its bits do not depend on the
        # BLAS thread count; those of delta.T @ a do, at the first layer.
        dW[...] = (activations[i].T @ delta).T
        delta.sum(axis=0, out=db)
        if i > 0:
            delta = (delta @ net.layers[i][0]) * (zs[i - 1] > 0.0)
    return mean_loss, probs, grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdamState:
    """Step count, moments shaped like params, and the learning rate."""

    t: int
    m: np.ndarray
    v: np.ndarray
    alpha: float


def init_adam(net: Network, alpha: float) -> AdamState:
    zeros = np.zeros_like(net.params)
    return AdamState(t=0, m=zeros, v=zeros, alpha=alpha)


def adam_step(
    net: Network, adam: AdamState, grads: np.ndarray
) -> tuple[Network, AdamState]:
    """One bias-corrected Adam update (Kingma & Ba 2015) into fresh vectors;
    rejects non-finite gradients. Written with out= to spare temporaries, in
    the operation order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p = p - alpha*(m/c1) / (sqrt(v/c2) + eps), so the bits match it."""
    if not np.isfinite(grads).all():
        raise ValueError("non-finite gradient; update rejected")
    t = adam.t + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    scratch = np.multiply(1.0 - ADAM_BETA1, grads)
    m = np.multiply(ADAM_BETA1, adam.m)
    m += scratch
    np.multiply(1.0 - ADAM_BETA2, grads, out=scratch)
    scratch *= grads
    v = np.multiply(ADAM_BETA2, adam.v)
    v += scratch
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    params = np.divide(m, c1)
    np.multiply(adam.alpha, params, out=params)
    params /= scratch
    np.subtract(net.params, params, out=params)
    return replace(net, params=params), replace(adam, t=t, m=m, v=v)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_MODEL_MAGIC = b"MNNET"
_MODEL_VERSION = 1


def save_model(net: Network, sink) -> None:
    """Versioned binary model file; round-trips bit exactly."""
    sink.write(_MODEL_MAGIC)
    sink.write(struct.pack(">IB", _MODEL_VERSION, net.meta.mask.to_bits()))
    write_str(sink, net.meta.catalog_hash)
    write_str(sink, net.meta.norms_hash)
    sizes = net.topology.layer_sizes
    sink.write(struct.pack(">H", len(sizes)))
    sink.write(struct.pack(f">{len(sizes)}I", *sizes))
    sink.write(net.params.astype(">f8").tobytes())


def load_model(source) -> Network:
    cur = Cursor(source, "model")
    if cur.take(5) != _MODEL_MAGIC:
        raise FormatError("not a model file (bad magic)")
    version, mask_bits = cur.unpack(">IB")
    if version != _MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    catalog_hash, norms_hash = cur.read_str(), cur.read_str()
    (n_sizes,) = cur.unpack(">H")
    try:
        topology = NetworkTopology(layer_sizes=cur.unpack(f">{n_sizes}I"))
        mask = FeatureGroupMask.from_bits(mask_bits)
    except ValueError as e:
        raise FormatError(f"bad model header: {e}") from None
    params = np.frombuffer(cur.take(topology.n_params * 8), dtype=">f8").astype(np.float64)
    if not cur.done():
        raise FormatError("trailing bytes after model parameters")
    if not np.isfinite(params).all():
        raise FormatError("non-finite model parameter")
    meta = ModelMeta(catalog_hash=catalog_hash, norms_hash=norms_hash, mask=mask)
    return Network(topology=topology, params=params, meta=meta)
