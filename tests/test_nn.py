"""Value-network tests: initialisation, forward math, gradients, persistence."""
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogdist.nn import QNetwork
from gradcheck import numeric_gradients, step_gradients


def small_arch():
    return (5, 8, 8, 4)


def network_sizes():
    """Sizes of a network with 1 to 3 hidden layers of one width."""
    return st.tuples(st.integers(1, 8), st.integers(1, 3), st.integers(1, 30),
                     st.integers(1, 6)).map(lambda d: (d[0], *(d[2],) * d[1], d[3]))


def test_architecture_validation():
    with pytest.raises(ValueError, match=re.escape("each >= 1, got (0, 24, 24, 2)")):
        QNetwork.initialize((0, 24, 24, 2))
    with pytest.raises(ValueError, match=re.escape("each >= 1, got (3, 24, 24, 0)")):
        QNetwork.initialize((3, 24, 24, 0))
    with pytest.raises(ValueError, match=re.escape("two or more, each >= 1, got (19,)")):
        QNetwork((19,), [], [])
    assert QNetwork.initialize([19, 24, 24, 4]).sizes == (19, 24, 24, 4)


def test_initialize_is_seeded_and_bounded():
    net_a = QNetwork.initialize(small_arch(), seed=7)
    net_b = QNetwork.initialize(small_arch(), seed=7)
    net_c = QNetwork.initialize(small_arch(), seed=8)
    for wa, wb in zip(net_a.weights, net_b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(net_a.weights, net_c.weights))
    sizes = small_arch()
    for w, fan_in, fan_out in zip(net_a.weights, sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
    for b in net_a.biases:
        assert np.all(b == 0.0)


def test_forward_hand_computed():
    """1-1-1 net: x=1, w1=2, b1=0.5 -> relu(2.5)=2.5; w2=-3, b2=1 -> -6.5."""
    net = QNetwork((1, 1, 1), [np.array([[2.0]]), np.array([[-3.0]])],
                   [np.array([0.5]), np.array([1.0])])
    assert net.forward(np.array([1.0]))[0] == pytest.approx(-6.5, rel=1e-12)
    # negative pre-activation is clamped: x=-1 -> relu(-1.5)=0 -> output b2=1
    assert net.forward(np.array([-1.0]))[0] == pytest.approx(1.0, rel=1e-12)


def test_forward_output_shape_and_input_check():
    net = QNetwork.initialize(small_arch(), seed=0)
    out = net.forward(np.zeros(5))
    assert out.shape == (4,)
    with pytest.raises(ValueError):
        net.forward(np.zeros(6))


def test_gradients_match_finite_differences():
    """The gradients an SGD step applies vs central differences on random cases."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        net = QNetwork.initialize(small_arch(), seed=trial)
        x = rng.uniform(0.0, 1.0, size=5)
        action = int(rng.integers(0, 4))
        target = float(rng.normal())
        num_w, num_b = numeric_gradients(net, x, action, target)
        grad_w, grad_b = step_gradients(net, x, action, target)
        for analytic, numeric in zip(grad_w + grad_b, num_w + num_b):
            scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
    assert worst < 1e-4


def test_sgd_step_no_op_at_zero_error():
    net = QNetwork.initialize(small_arch(), seed=3)
    x = np.full(5, 0.5)
    target = float(net.forward(x)[2])
    before = [w.copy() for w in net.weights]
    loss = net.sgd_step(x, 2, target, learning_rate=0.01)
    assert loss == 0.0
    for w, b in zip(net.weights, before):
        assert np.array_equal(w, b)


def test_sgd_step_returns_pre_step_loss():
    net = QNetwork.initialize(small_arch(), seed=4)
    x = np.full(5, 0.25)
    q = float(net.forward(x)[0])
    target = q + 2.0
    # loss before the update: (target - q)^2 = 4
    assert net.sgd_step(x, 0, target, 0.001) == pytest.approx(4.0, rel=1e-12)


def test_sgd_converges_on_a_fixed_sample():
    net = QNetwork.initialize(small_arch(), seed=5)
    x = np.array([0.1, 0.9, 0.4, 0.7, 0.2])
    target = -3.0
    loss = None
    for _ in range(10_000):
        loss = net.sgd_step(x, 1, target, learning_rate=0.01)
        if loss < 1e-6:
            break
    assert loss < 1e-6


def test_sgd_only_moves_the_chosen_action():
    """One step changes the selected head; the shared layers move every head,
    but with a fresh net the other outputs stay put when the input is zero."""
    net = QNetwork.initialize(small_arch(), seed=6)
    x = np.zeros(5)
    before = net.forward(x).copy()
    net.sgd_step(x, 3, before[3] + 1.0, learning_rate=0.01)
    after = net.forward(x)
    # zero input and zero biases keep hidden activations at zero, so only
    # the output bias of action 3 can move
    assert after[3] != before[3]
    assert np.array_equal(after[:3], before[:3])


def test_argmax_invariant_to_constant_output_shift():
    net = QNetwork.initialize(small_arch(), seed=12)
    rng = np.random.default_rng(0)
    for _ in range(30):
        x = rng.uniform(0, 1, 5)
        base = int(np.argmax(net.forward(x)))
        shifted = QNetwork.from_dict(net.to_dict(), net.sizes)
        shifted.biases[-1] += 10.0
        assert int(np.argmax(shifted.forward(x))) == base


def test_save_load_round_trip():
    """Parameters survive a trip through JSON text exactly."""
    net = QNetwork.initialize(small_arch(), seed=13)
    net.sgd_step(np.full(5, 0.3), 1, 2.0, 0.05)
    loaded = QNetwork.from_dict(json.loads(json.dumps(net.to_dict())), small_arch())
    x = np.full(5, 0.8)
    assert np.array_equal(net.forward(x), loaded.forward(x))
    assert loaded.sizes == net.sizes
    for mine, theirs in zip(net.weights + net.biases, loaded.weights + loaded.biases):
        assert np.array_equal(mine, theirs)


@settings(max_examples=100, deadline=None)
@given(sizes=network_sizes(), seed=st.integers(0, 2**16), data=st.data())
def test_from_dict_round_trips_and_refuses_other_sizes(sizes, seed, data):
    """`from_dict(to_dict(net), net.sizes)` gives equal parameters; sizes that
    differ in one entry are refused by the layer the change reaches first."""
    net = QNetwork.initialize(sizes, seed=seed)
    net.sgd_step(np.full(sizes[0], 0.5), 0, 1.0, 0.05)
    loaded = QNetwork.from_dict(net.to_dict(), net.sizes)
    assert loaded.sizes == sizes
    for mine, theirs in zip(net.weights + net.biases, loaded.weights + loaded.biases):
        assert np.array_equal(mine, theirs)
    i = data.draw(st.integers(0, len(sizes) - 1))
    other = list(sizes)
    other[i] = data.draw(st.integers(1, 40).filter(lambda n: n != sizes[i]))
    with pytest.raises(ValueError, match=rf"^network: malformed parameters \(layer {max(i - 1, 0)}: "
                                         r"expected weight and bias shapes "):
        QNetwork.from_dict(net.to_dict(), tuple(other))


def test_from_dict_rejects_unknown_and_missing_keys():
    """The checkpoint carries the format version; a network section has none."""
    data = QNetwork.initialize(small_arch(), seed=14).to_dict()
    assert set(data) == {"weights", "biases"}
    with pytest.raises(ValueError, match=r"^network: unknown key\(s\) \['format_version'\]"):
        QNetwork.from_dict({**data, "format_version": 1}, small_arch())
    del data["biases"]
    with pytest.raises(ValueError, match=r"^network: missing key\(s\) \['biases'\]"):
        QNetwork.from_dict(data, small_arch())


def test_invalid_training_inputs():
    """Each bad argument is refused by name, before any parameter moves."""
    net = QNetwork.initialize(small_arch(), seed=15)
    before = [p.copy() for p in net.weights + net.biases]
    x = np.full(5, 0.5)
    refusals = [
        ((x, 9, 0.0, 0.01), r"^action must lie in \[0, 4\), got 9$"),
        ((x, 0, float("nan"), 0.01), r"^target must be finite, got nan$"),
        ((x, 0, 0.0, 0.0), r"^learning_rate must be finite and > 0$"),
        ((x, 0, 0.0, -0.01), r"^learning_rate must be finite and > 0$"),
        ((x, 0, 0.0, float("nan")), r"^learning_rate must be finite and > 0$"),
        ((x, 0, 0.0, float("inf")), r"^learning_rate must be finite and > 0$"),
        ((np.zeros(6), 0, 0.0, 0.01), r"^input must have shape \(5,\), got \(6,\)$"),
    ]
    for args, message in refusals:
        with pytest.raises(ValueError, match=message):
            net.sgd_step(*args)
        for old, p in zip(before, net.weights + net.biases):
            assert np.array_equal(old, p)


@st.composite
def training_samples(draw):
    """A random network with mixed-sign biases and one (state, action, target) sample."""
    net = QNetwork.initialize(draw(network_sizes()), seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    for b in net.biases:
        b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
    x = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=net.sizes[0],
                               max_size=net.sizes[0])))
    action = draw(st.integers(0, net.sizes[-1] - 1))
    q = float(net.forward(x)[action])
    target = draw(st.one_of(st.just(q), st.floats(-10.0, 10.0)))
    return net, x, action, target


@settings(max_examples=200, deadline=None)
@given(sample=training_samples())
def test_forward_matches_a_matmul_reference_chain(sample):
    net, x, _, _ = sample
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(w @ a + b, 0.0)
    assert np.array_equal(net.forward(x), net.weights[-1] @ a + net.biases[-1])


@settings(max_examples=200, deadline=None)
@given(sample=training_samples(), learning_rate=st.floats(1e-4, 0.1))
def test_sgd_step_matches_a_matmul_reference_step(sample, learning_rate):
    """One step against an outer-product reference: the loss and every
    parameter equal to the bit, at 1 to 3 hidden layers."""
    net, x, action, target = sample
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    acts = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.maximum(w @ acts[-1] + b, 0.0))
    q = float((weights[-1] @ acts[-1] + biases[-1])[action])
    diff = target - q
    d = 2 * (q - target)
    delta = np.zeros_like(biases[-1])
    delta[action] = d
    grads = {}
    for i in range(len(weights) - 1, -1, -1):
        grads[i] = (np.outer(delta, acts[i]), delta)
        if i > 0:
            delta = (delta @ weights[i]) * (acts[i] > 0)

    loss = net.sgd_step(x, action, target, learning_rate)

    assert loss == diff * diff
    for i, (grad_w, grad_b) in grads.items():
        assert np.array_equal(net.weights[i], weights[i] - learning_rate * grad_w)
        assert np.array_equal(net.biases[i], biases[i] - learning_rate * grad_b)
