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

The public functions are functional: ``backward_batch`` and ``adam_step``
allocate what they return and leave their arguments alone. A training run
instead passes both one ``Workspace``, allocated once for its topology and
batch size, and they run the same code in its buffers: ``adam_step`` then
updates the parameters and moments in place, and what either returns from
the workspace is overwritten by the next step.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .encoding import (
    FULL_MASK,
    N_CLASSES,
    N_FEATURES,
    Cursor,
    FeatureGroupMask,
    apply_mask,
    write_str,
)
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
    """Raise CompatibilityError unless the model reads the pipeline's
    N_FEATURES inputs and writes its N_CLASSES outputs, and was trained on
    data encoded with the catalog and normalization table of these content
    hashes (a model that records no hash passes that part)."""
    topology = net.topology
    if (topology.input_size, topology.output_size) != (N_FEATURES, N_CLASSES):
        raise CompatibilityError(
            f"model maps {topology.input_size} inputs to {topology.output_size} "
            f"outputs; the pipeline needs {N_FEATURES} to {N_CLASSES}"
        )
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
    """Softmax over the last axis, written into z."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _forward_layers(net: Network, X: np.ndarray, outputs=None):
    """Yields each layer's input, then the probabilities. A hidden layer's
    input is the previous layer's ReLU output, whose sign is the ReLU's
    derivative. Layer i writes into outputs[i] when given, else into a fresh
    array, and holds no reference to a layer's input once it has yielded the
    next one."""
    a = X
    last = len(net.layers) - 1
    for i, (W, b) in enumerate(net.layers):
        yield a
        z = np.matmul(a, W.T, out=None if outputs is None else outputs[i])
        z += b
        a = _softmax(z) if i == last else np.maximum(z, 0.0, out=z)
    yield a


def _check_input(net: Network, X: np.ndarray, in_place: bool = False) -> np.ndarray:
    """X as float64, with the groups the model's mask excludes zeroed (in X
    itself when in_place, else in a copy), so a masked model never reads
    features it was not trained on."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != net.topology.input_size:
        raise ValueError(
            f"input has {X.shape[-1]} features, network expects "
            f"{net.topology.input_size}"
        )
    if net.meta.mask == FULL_MASK:
        return X
    return apply_mask(X, net.meta.mask, in_place=in_place)


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Class distribution for one input vector. Non-negative, sums to 1."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"forward expects a single vector, got shape {x.shape}")
    return forward_batch(net, x[None, :])[0]


def forward_batch(net: Network, X: np.ndarray) -> np.ndarray:
    """Class distributions for a (n, features) batch, computed one layer at
    a time: besides X, it holds at most one layer's input and output."""
    X = _check_input(net, X)
    if X.ndim != 2:
        raise ValueError(f"forward_batch expects (n, features), got shape {X.shape}")
    for a in _forward_layers(net, X):
        pass
    return a


def loss(dist: np.ndarray, target_class: int) -> float:
    """Cross entropy of one prediction: -log p(target), floored at 1e-12."""
    if not 0 <= target_class < len(dist):
        raise ValueError(f"target class {target_class} out of range")
    return -math.log(max(float(dist[target_class]), PROBABILITY_FLOOR))


def batch_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    picked = probs[np.arange(len(targets)), targets]
    return float(-np.log(np.maximum(picked, PROBABILITY_FLOOR)).mean())


class Workspace:
    """The buffers one training run writes, allocated once for a topology and
    a batch size: the gathered batch and its targets; each layer's output,
    delta and ReLU mask; each layer's weight gradient as an (in, out) matrix;
    the gradient vector; and Adam's finite-check mask, scratch and update
    vectors. A batch of n rows uses the leading n rows of each buffer."""

    def __init__(self, topology: NetworkTopology, batch_size: int):
        sizes, n_params = topology.layer_sizes, topology.n_params
        self.batch = np.empty((batch_size, sizes[0]))
        self.targets = np.empty(batch_size, dtype=np.int64)
        self.rows = np.arange(batch_size)
        self.outputs = [np.empty((batch_size, s)) for s in sizes[1:]]
        self.deltas = [np.empty((batch_size, s)) for s in sizes[1:]]
        self.relu_masks = [np.empty((batch_size, s), dtype=bool) for s in sizes[1:-1]]
        self.weight_grads = [np.empty((i, o)) for i, o in zip(sizes[:-1], sizes[1:])]
        self.grads = np.empty(n_params)
        self.grad_views = topology.layer_views(self.grads)
        self.finite = np.empty(n_params, dtype=bool)
        self.scratch = np.empty(n_params)
        self.update = np.empty(n_params)

    def gather(self, X: np.ndarray, y: np.ndarray, rows: np.ndarray):
        """(X[rows], y[rows]) copied into the batch buffers. X must be
        float64, y int64, and every row in range: rows are not checked."""
        n = len(rows)
        return (
            np.take(X, rows, axis=0, out=self.batch[:n], mode="clip"),
            np.take(y, rows, out=self.targets[:n], mode="clip"),
        )


def backward_batch(
    net: Network, X: np.ndarray, targets: np.ndarray, workspace: Workspace | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss, batch probabilities, and the mean of the per-example
    gradients, shaped like params. Given a workspace, X is a batch gathered
    into it (a masked model zeroes its excluded groups there), and the
    probabilities and gradients returned are its buffers; without one, it
    allocates a workspace for this call."""
    if workspace is None:
        X = _check_input(net, X)
        workspace = Workspace(net.topology, len(X))
    else:
        X = _check_input(net, X, in_place=True)
    n = X.shape[0]
    *inputs, probs = _forward_layers(net, X, [out[:n] for out in workspace.outputs])
    mean_loss = batch_loss(probs, targets)
    # Softmax + cross entropy: output pre-activation gradient is probs - onehot.
    delta = workspace.deltas[-1][:n]
    np.copyto(delta, probs)
    delta[workspace.rows[:n], targets] -= 1.0
    delta /= n
    for i in range(len(net.layers) - 1, -1, -1):
        dW, db = workspace.grad_views[i]
        # Computed as (a.T @ delta).T because its bits do not depend on the
        # BLAS thread count; those of delta.T @ a do, at the first layer.
        dW[...] = np.matmul(inputs[i].T, delta, out=workspace.weight_grads[i]).T
        delta.sum(axis=0, out=db)
        if i > 0:
            delta = np.matmul(delta, net.layers[i][0], out=workspace.deltas[i - 1][:n])
            delta *= np.greater(inputs[i], 0.0, out=workspace.relu_masks[i - 1][:n])
    return mean_loss, probs, workspace.grads


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
    """Zero moments, in two arrays: adam_step may update them in place."""
    m, v = np.zeros_like(net.params), np.zeros_like(net.params)
    return AdamState(t=0, m=m, v=v, alpha=alpha)


def adam_step(
    net: Network, adam: AdamState, grads: np.ndarray, workspace: Workspace | None = None
) -> tuple[Network, AdamState]:
    """One bias-corrected Adam update (Kingma & Ba 2015); rejects non-finite
    gradients. Given a workspace, it updates net.params, adam.m and adam.v in
    place and returns net itself; without one, it updates copies and leaves
    its arguments alone. Written with out= to spare temporaries, in the
    operation order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p = p - alpha*(m/c1) / (sqrt(v/c2) + eps), so the bits match it."""
    if workspace is None:
        net = replace(net, params=net.params.copy())
        adam = replace(adam, m=adam.m.copy(), v=adam.v.copy())
        workspace = Workspace(net.topology, 0)
    if not np.isfinite(grads, out=workspace.finite).all():
        raise ValueError("non-finite gradient; update rejected")
    t = adam.t + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    m, v, scratch, update = adam.m, adam.v, workspace.scratch, workspace.update
    np.multiply(1.0 - ADAM_BETA1, grads, out=scratch)
    m *= ADAM_BETA1
    m += scratch
    np.multiply(1.0 - ADAM_BETA2, grads, out=scratch)
    scratch *= grads
    v *= ADAM_BETA2
    v += scratch
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    np.divide(m, c1, out=update)
    np.multiply(adam.alpha, update, out=update)
    update /= scratch
    np.subtract(net.params, update, out=net.params)
    return net, replace(adam, t=t)


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
