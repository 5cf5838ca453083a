"""Finite-difference oracle for the value network's analytic backward pass,
and the gradients one SGD step applies, read back from the step."""
import numpy as np


def numeric_gradients(net, x, action: int, target: float, step: float = 1e-5):
    """Central finite-difference gradients of the single-action loss (target - q[action])**2."""
    def loss_at() -> float:
        q = net.forward(x)[action]
        return (target - q) ** 2

    grad_w = [np.zeros_like(w) for w in net.weights]
    grad_b = [np.zeros_like(b) for b in net.biases]
    for params, grads in ((net.weights, grad_w), (net.biases, grad_b)):
        for p, g in zip(params, grads):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for i in range(flat_p.size):
                original = flat_p[i]
                flat_p[i] = original + step
                up = loss_at()
                flat_p[i] = original - step
                down = loss_at()
                flat_p[i] = original
                flat_g[i] = (up - down) / (2.0 * step)
    return grad_w, grad_b


def step_gradients(net, x, action: int, target: float, learning_rate: float = 0.001):
    """The gradients one `sgd_step` applies: (p_before - p_after) / learning_rate
    for every weight and bias.  The step moves `net`."""
    params = net.weights + net.biases
    before = [p.copy() for p in params]
    net.sgd_step(x, action, target, learning_rate)
    grads = [(old - p) / learning_rate for old, p in zip(before, params)]
    return grads[:len(net.weights)], grads[len(net.weights):]
