import contextlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcheck import backward, finite_difference_gradients
from macronet.encoding import FeatureGroupMask, apply_mask, parse_mask
from macronet.errors import CompatibilityError, FormatError
from macronet.net import (
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
