import contextlib
import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcheck import backward, finite_difference_gradients
from macronet.encoding import FeatureGroupMask, apply_mask, parse_mask
from macronet.errors import CompatibilityError, FormatError
from macronet.net import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DEFAULT_LAYER_SIZES,
    ModelMeta,
    Network,
    NetworkTopology,
    adam_step,
    backward_batch,
    batch_loss,
    check_compatibility,
    forward,
    forward_batch,
    init_adam,
    init_network,
    load_model,
    loss,
    save_model,
    Workspace,
)


def tiny(sizes=(6, 5, 4), seed=3) -> Network:
    return init_network(NetworkTopology(layer_sizes=tuple(sizes)), seed=seed)


def test_default_topology():
    assert NetworkTopology().layer_sizes == DEFAULT_LAYER_SIZES
    assert NetworkTopology().input_size == 210
    assert NetworkTopology().output_size == 58


def test_topology_validation():
    with pytest.raises(ValueError):
        NetworkTopology(layer_sizes=(210, 58))  # no hidden layer
    with pytest.raises(ValueError):
        NetworkTopology(layer_sizes=(210, 0, 58))
    with pytest.raises(ValueError):
        NetworkTopology(layer_sizes=(210, -4, 58))


def test_init_shapes_and_zero_biases():
    net = tiny((210, 128, 58))
    assert [W.shape for W, _ in net.layers] == [(128, 210), (58, 128)]
    assert all(not b.any() for _, b in net.layers)


def test_layers_are_views_in_file_order():
    net = tiny((6, 5, 4))
    (W0, b0), (W1, b1) = net.layers
    assert net.params.shape == (net.topology.n_params,) == (5 * 7 + 4 * 6,)
    np.testing.assert_array_equal(
        net.params, np.concatenate([W0.ravel(), b0, W1.ravel(), b1])
    )
    assert all(np.shares_memory(a, net.params) for layer in net.layers for a in layer)


def test_init_is_deterministic():
    a = init_network(seed=9)
    b = init_network(seed=9)
    assert a.model_version() == b.model_version()
    c = init_network(seed=10)
    assert c.model_version() != a.model_version()


def test_xavier_distribution_stats():
    """Uniform on (-L, L) with L = sqrt(6/(fan_in+fan_out)): bounded support,
    variance L^2/3 = 2/(fan_in+fan_out)."""
    net = init_network(NetworkTopology(layer_sizes=(200, 100, 10)), seed=4)
    W = net.layers[0][0]  # 20000 draws
    limit = math.sqrt(6.0 / (200 + 100))
    assert W.size >= 10_000
    assert float(np.abs(W).max()) <= limit
    assert float(np.abs(W).max()) > 0.99 * limit
    expected_var = limit * limit / 3.0
    assert np.var(W) == pytest.approx(expected_var, rel=0.05)
    assert np.mean(W) == pytest.approx(0.0, abs=limit / 50)


def test_forward_is_distribution(rng):
    net = tiny()
    dist = forward(net, rng.random(6))
    assert dist.shape == (4,)
    assert float(dist.min()) >= 0.0
    assert float(dist.sum()) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6))
def test_forward_sums_to_one(xs):
    net = tiny()
    dist = forward(net, np.array(xs))
    assert float(dist.sum()) == pytest.approx(1.0, abs=1e-9)
    assert float(dist.min()) >= 0.0


def test_forward_batch_matches_single(rng):
    net = tiny((7, 6, 5, 4), seed=8)
    X = rng.random((9, 7))
    batch = forward_batch(net, X)
    for i in range(9):
        np.testing.assert_allclose(batch[i], forward(net, X[i]), atol=1e-15)


def test_forward_rejects_bad_shape(rng):
    net = tiny()
    with pytest.raises(ValueError):
        forward(net, rng.random(5))
    with pytest.raises(ValueError):
        forward_batch(net, rng.random((3, 7)))


def test_softmax_handles_large_logits():
    # weights scaled up so raw logits are huge; max-subtraction keeps it finite
    net = tiny((4, 3, 2), seed=0)
    big = replace(net, params=net.params * 400.0)  # biases are 0: scales the weights
    dist = forward(big, np.ones(4))
    assert np.isfinite(dist).all()
    assert float(dist.sum()) == pytest.approx(1.0)


def test_loss_at_zero_weights_is_log_n():
    """All-zero parameters give the uniform distribution, so cross-entropy is
    ln(58) = 4.06044... regardless of the target."""
    net = init_network(seed=0)
    zeroed = replace(net, params=np.zeros_like(net.params))
    x = np.full(210, 0.5)
    for target in (0, 30, 57):
        assert loss(forward(zeroed, x), target) == pytest.approx(math.log(58), abs=1e-12)


def test_loss_floor_keeps_loss_finite():
    dist = np.zeros(4)
    dist[0] = 1.0
    val = loss(dist, 3)  # target has probability exactly 0
    assert math.isfinite(val)
    assert val == pytest.approx(-math.log(1e-12))


def test_batch_loss_is_mean_of_losses(rng):
    net = tiny()
    X = rng.random((5, 6))
    targets = np.array([0, 1, 2, 3, 0])
    probs = forward_batch(net, X)
    expected = np.mean([loss(probs[i], int(targets[i])) for i in range(5)])
    assert batch_loss(probs, targets) == pytest.approx(expected, abs=1e-12)


GRADCHECK_TOPOLOGIES = [
    (5, 4, 3),
    (6, 5, 5, 4),
    (4, 8, 3, 2),
]


@pytest.mark.parametrize("sizes", GRADCHECK_TOPOLOGIES)
def test_backward_matches_finite_differences(sizes, rng):
    net = tiny(sizes, seed=11)
    x = rng.random(sizes[0])
    target = int(rng.integers(sizes[-1]))
    analytic = backward(net, x, target)
    numeric = finite_difference_gradients(net, x, target)
    assert analytic.shape == numeric.shape == net.params.shape
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_backward_batch_averages_per_example_gradients(rng):
    net = tiny((6, 5, 4), seed=2)
    X = rng.random((3, 6))
    targets = np.array([1, 0, 3])
    _, _, batch_grads = backward_batch(net, X, targets)
    singles = [backward(net, X[i], int(targets[i])) for i in range(3)]
    np.testing.assert_allclose(batch_grads, np.mean(singles, axis=0), atol=1e-12)


def test_output_bias_gradient_at_zero_weights():
    """With zero weights the output is uniform, so dL/db at the output layer
    is exactly 1/n - onehot."""
    net = tiny((6, 5, 4), seed=0)
    zeroed = replace(net, params=np.zeros_like(net.params))
    grads = backward(zeroed, np.ones(6), 2)
    expected = np.full(4, 0.25)
    expected[2] -= 1.0
    _, output_b = zeroed.topology.layer_views(grads)[-1]
    np.testing.assert_allclose(output_b, expected, atol=1e-12)


def test_adam_first_step_magnitude():
    """After one update every parameter with a nonzero gradient moves by
    alpha/(1+eps') ~ alpha, independent of the gradient's magnitude."""
    net = tiny((6, 5, 4), seed=5)
    adam = init_adam(net, alpha=0.0001)
    x = np.linspace(0.1, 1.0, 6)
    grads = backward(net, x, 1)
    stepped, adam = adam_step(net, adam, grads)
    assert adam.t == 1
    delta = np.abs(stepped.params - net.params)
    moved = np.abs(grads) > 1e-4  # away from the eps regime
    assert np.all(delta[moved] <= 0.0001 + 1e-12)
    assert np.all(delta[moved] >= 0.0001 * (1.0 - 1e-3))


def test_adam_is_functional():
    net = tiny()
    adam = init_adam(net, alpha=0.0001)
    before = net.params.copy()
    grads = backward(net, np.ones(6), 0)
    stepped, adam2 = adam_step(net, adam, grads)
    np.testing.assert_array_equal(net.params, before)
    assert not adam.m.any() and not adam.v.any()
    assert adam.t == 0 and adam2.t == 1
    assert stepped is not net


def test_adam_rejects_nonfinite_gradients():
    net = tiny()
    adam = init_adam(net, alpha=0.0001)
    grads = backward(net, np.ones(6), 0)
    bad = grads.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        adam_step(net, adam, bad)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        adam_step(net, adam, bad)


def test_init_adam_moments_never_share_memory():
    net = tiny()
    adam = init_adam(net, alpha=0.0001)
    assert not np.shares_memory(adam.m, adam.v)
    _, stepped = adam_step(net, adam, backward(net, np.ones(6), 0))
    assert not np.shares_memory(stepped.m, stepped.v)


def _bits(a: np.ndarray) -> bytes:
    return a.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(0, 10_000),
    alpha=st.floats(1e-6, 1.0),
    steps=st.integers(1, 3),
)
def test_in_place_adam_step_equals_the_functional_step_bit_for_bit(seed, t, alpha, steps):
    """Over random parameters, moments, gradients and step counts, adam_step
    in a workspace gives the bits of the functional step, and both give
    those of the update's formula evaluated in its written order."""
    rng = np.random.default_rng(seed)
    net = tiny((4, 3, 2))
    net = replace(net, params=rng.normal(size=net.params.shape))
    scale = 10.0 ** rng.integers(-8, 3)
    adam = replace(
        init_adam(net, alpha=alpha),
        t=t,
        m=scale * rng.normal(size=net.params.shape),
        v=scale * scale * rng.random(net.params.shape),
    )
    in_place_net = replace(net, params=net.params.copy())
    in_place = replace(adam, m=adam.m.copy(), v=adam.v.copy())
    workspace = Workspace(net.topology, 1)
    p, m, v = net.params.copy(), adam.m.copy(), adam.v.copy()
    for k in range(1, steps + 1):
        grads = scale * rng.normal(size=net.params.shape)
        net, adam = adam_step(net, adam, grads)
        returned, in_place = adam_step(in_place_net, in_place, grads, workspace)
        assert returned is in_place_net
        c1, c2 = 1.0 - ADAM_BETA1 ** (t + k), 1.0 - ADAM_BETA2 ** (t + k)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grads
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grads * grads
        p = p - alpha * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        assert adam.t == in_place.t == t + k
        for expected, functional, updated in (
            (p, net.params, in_place_net.params),
            (m, adam.m, in_place.m),
            (v, adam.v, in_place.v),
        ):
            assert _bits(functional) == _bits(expected) == _bits(updated)


def test_in_place_adam_step_rejects_nonfinite_gradients_untouched():
    net = tiny()
    adam = init_adam(net, alpha=0.0001)
    before = net.params.copy()
    bad = backward(net, np.ones(6), 0)
    bad[-1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(net, adam, bad, Workspace(net.topology, 1))
    np.testing.assert_array_equal(net.params, before)
    assert not adam.m.any() and not adam.v.any()


@pytest.mark.parametrize("mask", ["a+b+c+d+e", "a+c"])
def test_workspace_backward_equals_fresh_backward(rng, mask):
    """A workspace sized for 100 rows, reused over batches of 100, 100 and
    57 (the ragged last batch of 257), gives the bits of backward_batch
    called without one; a masked model zeroes the gathered batch itself."""
    net = init_network(seed=4, meta=ModelMeta(mask=parse_mask(mask)))
    X = rng.random((257, 210))
    y = rng.integers(0, 58, size=257)
    rows = rng.permutation(257)
    workspace = Workspace(net.topology, 100)
    for start in (0, 100, 200):
        batch = rows[start : start + 100]
        expected = backward_batch(net, X[batch], y[batch])
        xb, yb = workspace.gather(X, y, batch)
        got = backward_batch(net, xb, yb, workspace)
        assert len(yb) == len(batch)
        assert got[0] == expected[0]
        assert _bits(got[1]) == _bits(expected[1])
        assert _bits(got[2]) == _bits(expected[2])
        assert got[2] is workspace.grads
    assert X[:, 58:].all()  # gathering copies: the dataset itself is untouched


def _reference_forward(net: Network, X: np.ndarray) -> np.ndarray:
    """The forward pass as separate expressions, each layer kept."""
    a = X
    for i, (W, b) in enumerate(net.layers):
        z = a @ W.T + b
        if i < len(net.layers) - 1:
            a = np.maximum(z, 0.0)
        else:
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            a = e / e.sum(axis=-1, keepdims=True)
    return a


def test_forward_batch_holds_one_layer_at_a_time(rng):
    """forward_batch keeps a layer's input only until the next layer's output
    is computed: its peak is about two hidden layers, not all four of the
    default network, and the probabilities keep their bits."""
    net = init_network(seed=1)
    X = rng.random((2000, 210))
    tracemalloc.start()
    try:
        probs = forward_batch(net, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    hidden_layer = X.shape[0] * DEFAULT_LAYER_SIZES[1] * 8
    assert peak < 2.5 * hidden_layer, peak / hidden_layer
    assert _bits(probs) == _bits(_reference_forward(net, X))


def test_training_loop_decreases_loss(rng):
    net = tiny((6, 8, 4), seed=7)
    adam = init_adam(net, alpha=0.01)
    X = rng.random((20, 6))
    targets = rng.integers(0, 4, size=20)
    first = batch_loss(forward_batch(net, X), targets)
    for _ in range(300):
        _, _, grads = backward_batch(net, X, targets)
        net, adam = adam_step(net, adam, grads)
    last = batch_loss(forward_batch(net, X), targets)
    assert last < first * 0.5


# -- serialization ---------------------------------------------------------


def test_save_load_bit_exact(rng):
    meta = ModelMeta(
        catalog_hash="79b5daa45c5c8e43",
        norms_hash="e5561f0b22de8921",
        mask=parse_mask("a+c+e"),
    )
    net = init_network(NetworkTopology(layer_sizes=(10, 7, 5)), seed=6, meta=meta)
    # bit-exactness must survive trained (non-initial) weights too
    grads = backward(net, rng.random(10), 2)
    net, _ = adam_step(net, init_adam(net, alpha=0.0001), grads)
    buf = io.BytesIO()
    save_model(net, buf)
    buf.seek(0)
    again = load_model(buf)
    assert again.topology == net.topology
    assert again.meta == net.meta
    assert again.meta.mask == FeatureGroupMask("ace")
    np.testing.assert_array_equal(again.params, net.params)
    assert again.model_version() == net.model_version()


def test_save_is_deterministic():
    net = tiny((8, 6, 5), seed=1)
    a, b = io.BytesIO(), io.BytesIO()
    save_model(net, a)
    save_model(net, b)
    assert a.getvalue() == b.getvalue()


def test_load_detects_truncation():
    net = tiny((8, 6, 5), seed=1)
    buf = io.BytesIO()
    save_model(net, buf)
    data = buf.getvalue()
    for cut in (0, 2, 4, 9, len(data) // 2, len(data) - 1):
        with pytest.raises(FormatError):
            load_model(io.BytesIO(data[:cut]))


def test_load_detects_trailing_bytes():
    net = tiny((8, 6, 5), seed=1)
    buf = io.BytesIO()
    save_model(net, buf)
    with pytest.raises(FormatError):
        load_model(io.BytesIO(buf.getvalue() + b"\x00"))


def test_load_detects_bad_magic():
    net = tiny((8, 6, 5), seed=1)
    buf = io.BytesIO()
    save_model(net, buf)
    data = bytearray(buf.getvalue())
    data[0] ^= 0xFF
    with pytest.raises(FormatError):
        load_model(io.BytesIO(bytes(data)))


def _model_file() -> bytes:
    meta = ModelMeta(
        catalog_hash="79b5daa45c5c8e43",
        norms_hash="e5561f0b22de8921",
        mask=parse_mask("a+c+e"),
    )
    buf = io.BytesIO()
    save_model(replace(tiny((4, 3, 2), seed=1), meta=meta), buf)
    return buf.getvalue()


_MODEL_FILE = _model_file()


def _corruption(at: int, byte: int) -> bytes:
    return _MODEL_FILE[:at] + bytes([byte]) + _MODEL_FILE[at + 1 :]


@settings(max_examples=300, deadline=None)
@given(
    blob=st.integers(0, len(_MODEL_FILE) - 1).map(lambda n: _MODEL_FILE[:n])
    | st.builds(_corruption, st.integers(0, len(_MODEL_FILE) - 1), st.integers(0, 255))
)
@example(blob=_corruption(9, 0))  # a mask without group a
@example(blob=_corruption(12, 0xFF))  # inside the catalog hash
@example(blob=_corruption(51, 0))  # a layer of size 0
@example(blob=_MODEL_FILE[:-8] + b"\x7f\xf8" + _MODEL_FILE[-6:])  # a NaN parameter
def test_corrupt_model_file_loads_or_raises_format_error(blob):
    with contextlib.suppress(FormatError):
        assert np.isfinite(load_model(io.BytesIO(blob)).params).all()


def test_load_rejects_non_finite_parameters():
    for bad in (b"\x7f\xf8", b"\x7f\xf0", b"\xff\xf0"):  # NaN, inf, -inf
        blob = _MODEL_FILE[:-8] + bad + bytes(6)
        with pytest.raises(FormatError, match="non-finite"):
            load_model(io.BytesIO(blob))


def test_load_rejects_mask_bits_past_the_groups():
    # 0xE1 keeps bit 0 (group a) but sets bits no feature group owns
    with pytest.raises(FormatError):
        load_model(io.BytesIO(_corruption(9, 0xE1)))


# -- the input contract --------------------------------------------------------


def test_masked_model_ignores_its_excluded_groups(rng):
    mask = parse_mask("a+c")
    net = init_network(seed=2, meta=ModelMeta(mask=mask))
    X = rng.random((5, 210))
    pre_masked = apply_mask(X, mask)
    np.testing.assert_array_equal(forward(net, X[0]), forward(net, pre_masked[0]))
    np.testing.assert_array_equal(forward_batch(net, X), forward_batch(net, pre_masked))
    targets = np.arange(5)
    raw, masked = backward_batch(net, X, targets), backward_batch(net, pre_masked, targets)
    assert raw[0] == masked[0]
    np.testing.assert_array_equal(raw[2], masked[2])
    assert X[:, 58:].all()  # the caller's input is untouched


def test_check_compatibility_compares_recorded_hashes():
    net = init_network(meta=ModelMeta(catalog_hash="cat", norms_hash="nrm"))
    check_compatibility(net, "cat", "nrm")
    with pytest.raises(CompatibilityError, match="different catalog"):
        check_compatibility(net, "other", "nrm")
    with pytest.raises(CompatibilityError, match=r"normalization table \(nrm != other\)"):
        check_compatibility(net, "cat", "other")
    check_compatibility(init_network(), "any", "thing")  # records no hash


@pytest.mark.parametrize("sizes", [(210, 8, 10), (200, 8, 58), (58, 8, 210)])
@pytest.mark.parametrize("meta", [ModelMeta(), ModelMeta(catalog_hash="cat", norms_hash="nrm")])
def test_check_compatibility_requires_the_pipelines_input_and_output_sizes(sizes, meta):
    net = init_network(NetworkTopology(layer_sizes=sizes), meta=meta)
    with pytest.raises(CompatibilityError, match=f"{sizes[0]} inputs to {sizes[-1]} outputs"):
        check_compatibility(net, "cat", "nrm")
    check_compatibility(init_network(NetworkTopology((210, 8, 58)), meta=meta), "cat", "nrm")


def test_model_version_tracks_parameters():
    net = tiny((6, 5, 4), seed=3)
    v0 = net.model_version()
    bumped = replace(net, params=net.params.copy())
    bumped.layers[1][0][0, 0] += 1e-9
    assert bumped.model_version() != v0
    assert len(v0) == 12


def test_model_version_ignores_meta():
    net = tiny((6, 5, 4), seed=3)
    remeta = Network(
        topology=net.topology,
        params=net.params,
        meta=ModelMeta(catalog_hash="aa", norms_hash="bb", mask=parse_mask("a")),
    )
    assert remeta.model_version() == net.model_version()
