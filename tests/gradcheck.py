"""Single-example gradients for the network tests, and the
finite-difference oracle they are checked against."""

import numpy as np

from macronet.net import Network, backward_batch, forward, loss


def backward(net: Network, x: np.ndarray, target_class: int) -> np.ndarray:
    """Gradient of the cross-entropy loss for one example, shaped like params."""
    return backward_batch(net, np.asarray(x)[None, :], np.array([target_class]))[2]


def finite_difference_gradients(
    net: Network, x: np.ndarray, target_class: int, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of loss(forward(net, x), target) for every
    parameter, shaped like net.params. Independent of backward(): it nudges
    one entry of net.params at a time, which the layers see through their
    views, and restores it."""
    params = net.params
    grads = np.zeros_like(params)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + h
        up = loss(forward(net, x), target_class)
        params[i] = orig - h
        down = loss(forward(net, x), target_class)
        params[i] = orig
        grads[i] = (up - down) / (2.0 * h)
    return grads
