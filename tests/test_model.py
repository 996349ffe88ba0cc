import hashlib
import math
import re

import numpy as np
import pytest

from contradapt.cli import main
from contradapt.gradcheck import central_difference, relative_gradient_error
from contradapt.model import (
    CHECKPOINT_HEADER,
    EMBED_BLOCK_ROWS,
    ModelParams,
    backward,
    cross_entropy,
    embed,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    zeros_like_params,
)
from contradapt.trainer import TrainConfig

from oracles import add_params_, layerwise_backward


def _tiny_params(rng=None, in_dim=3, hidden=(5,), bottleneck=4, n_classes=3):
    rng = rng or np.random.default_rng(0)
    return init_params(rng, in_dim, hidden, bottleneck, n_classes)


def _scalar_params(theta0: float) -> ModelParams:
    """A no-hidden-layer model whose only nonzero block is one weight."""
    return ModelParams([np.array([[theta0]]), np.zeros((1, 2))], [np.zeros(1), np.zeros(2)])


def _arrays(params):
    """Every parameter array in ``flat`` order: each layer's weight, then its bias."""
    return [a for pair in zip(params.weights, params.biases) for a in pair]


def _grad_like(params, bottleneck_w=0.0, logits_w=0.0):
    g = zeros_like_params(params)
    g.weights[-2][:] = bottleneck_w
    g.weights[-1][:] = logits_w
    return g


def test_init_shapes_and_ranges():
    rng = np.random.default_rng(1)
    params = init_params(rng, 6, (64, 32), 16, 4)
    assert [w.shape for w in params.weights[:-2]] == [(6, 64), (64, 32)]
    assert params.weights[-2].shape == (32, 16)
    assert params.weights[-1].shape == (16, 4)
    assert params.in_dim == 6 and params.n_classes == 4
    for w in params.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        assert np.all(np.abs(w) <= bound)
    for b in params.biases:
        assert np.array_equal(b, np.zeros_like(b))


def test_init_determinism_and_validation():
    a = init_params(np.random.default_rng(2), 3, (4,), 2, 2)
    b = init_params(np.random.default_rng(2), 3, (4,), 2, 2)
    assert all(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))
    with pytest.raises(ValueError, match="n_classes >= 2"):
        init_params(np.random.default_rng(0), 3, (4,), 2, 1)
    with pytest.raises(ValueError, match="hidden sizes"):
        init_params(np.random.default_rng(0), 3, (0,), 2, 2)


@pytest.mark.parametrize("seed, shape, digest", [
    (2, (3, (4,), 2, 2), "2d6971690e510a27f9b9322f3fdc5b3dd028c9e7d9eacf57ac64318122e0d3a0"),
    (5, (2, (), 3, 3), "1cc513865133c63754ce92f194ef05595ba3d009487b2b99d3335c17b5b91d75"),
    (9, (6, (64, 32), 16, 4), "d4275b25fe10e87bac6bef7e4caaaabf219f9ec8e79b5d73b9c12c2bc6f8a03e"),
])
def test_init_params_bits_are_pinned(seed, shape, digest):
    """SHA-256 of ``flat`` as drawn by the six-group parameter layout that the
    layer list replaced: same draw order, same layout, same bits."""
    params = init_params(np.random.default_rng(seed), *shape)
    assert hashlib.sha256(params.flat.tobytes()).hexdigest() == digest


def _softmax_of(logits):
    """The softmax inside ``cross_entropy``, read off its gradient
    ``(softmax - onehot) / n`` at the entries the one-hot leaves alone."""
    n, m = logits.shape
    p = np.empty((n, m))
    for c in range(m):
        p[:, c] = cross_entropy(logits, np.full(n, (c + 1) % m))[1][:, c] * n
    return p


def test_cross_entropy_softmax_properties():
    params = _tiny_params()
    x = np.random.default_rng(3).normal(size=(7, 3))
    stack = forward(params, x)
    assert set(vars(stack)) == {"inputs", "outputs"}  # layer outputs only, no softmax
    assert [h.shape for h in stack.outputs] == [(7, 5), (7, 4), (7, 3)]
    for h in stack.outputs[:-2]:
        assert np.all(h >= 0.0)
    probs = _softmax_of(stack.outputs[-1])
    assert probs.shape == (7, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0.0)
    # matches a plainly written softmax of the cached logits
    z = stack.outputs[-1]
    ref = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    assert np.allclose(probs, ref, atol=1e-12)


def test_cross_entropy_handles_large_logits():
    params = _scalar_params(1.0)
    params.weights[-1][:] = np.array([[1000.0, -1000.0]])
    logits = forward(params, [[1.0]]).outputs[-1]
    probs = _softmax_of(logits)
    assert np.isfinite(probs).all()
    assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)
    for label, want in ((0, 0.0), (1, -math.log(1e-12))):
        loss, grad = cross_entropy(logits, [label])
        assert loss == pytest.approx(want, abs=1e-9)
        assert np.isfinite(grad).all()


def test_forward_validation():
    params = _tiny_params()
    with pytest.raises(ValueError, match="2-d"):
        forward(params, np.zeros(3))
    with pytest.raises(ValueError, match="width"):
        forward(params, np.zeros((2, 5)))
    with pytest.raises(ValueError, match="2-d"):
        embed(params, np.zeros(3))
    with pytest.raises(ValueError, match="width"):
        embed(params, np.zeros((2, 5)))


@pytest.mark.parametrize("hidden", [(5,), ()])
def test_embed_matches_forward_bottleneck(hidden):
    rng = np.random.default_rng(11)
    params = _tiny_params(rng, in_dim=3, hidden=hidden)
    small = rng.normal(size=(EMBED_BLOCK_ROWS - 1, 3))
    assert np.array_equal(embed(params, small), forward(params, small).outputs[-2])
    large = rng.normal(size=(5000, 3))  # three blocks
    assert np.allclose(embed(params, large), forward(params, large).outputs[-2],
                       rtol=0.0, atol=1e-12)
    assert embed(params, np.zeros((0, 3))).shape == (0, 4)


@pytest.mark.parametrize("n_rows", [50, 5000])  # one block, three blocks
def test_embed_into_out_equals_fresh_array(n_rows):
    rng = np.random.default_rng(12)
    params = _tiny_params(rng, in_dim=3)
    x = rng.normal(size=(n_rows, 3))
    out = np.full((n_rows, 4), np.nan)
    assert embed(params, x, out=out) is out
    assert np.array_equal(out, embed(params, x))


def test_embed_rejects_a_bad_out():
    params = _tiny_params()
    x = np.zeros((6, 3))
    for bad in (np.empty((6, 5)), np.empty((5, 4)), np.empty((6, 4), dtype=np.float32),
                np.empty((4, 6)).T, np.empty((6, 8))[:, ::2]):
        with pytest.raises(ValueError, match=r"C-contiguous float64 array of shape \(6, 4\)"):
            embed(params, x, out=bad)


@pytest.mark.parametrize("hidden", [(5,), ()])
def test_forward_and_embed_leave_inputs_unchanged(hidden):
    params = _tiny_params(hidden=hidden)
    params.biases[-2][:] = 1.0  # an in-place bias-add on the inputs would show
    x = np.random.default_rng(4).normal(size=(6, 3))
    before = x.copy()
    forward(params, x)
    embed(params, x)
    assert np.array_equal(x, before)


def test_cross_entropy_examples():
    uniform = np.zeros((2, 4))
    assert cross_entropy(uniform, [0, 3])[0] == pytest.approx(1.3862943611198906, abs=1e-15)
    seven_three = [[math.log(0.7), math.log(0.3)]]
    assert cross_entropy(seven_three, [0])[0] == pytest.approx(0.35667494393873245, abs=1e-15)
    # softmax [exp(-1000), 1] rounds to [0, 1]; the log is clamped at 1e-12 instead of diverging
    assert cross_entropy([[-1000.0, 0.0]], [0])[0] == pytest.approx(-math.log(1e-12), abs=1e-9)


def test_cross_entropy_validation():
    with pytest.raises(ValueError, match="one label per row"):
        cross_entropy([[0.5, 0.5]], [0, 1])
    with pytest.raises(ValueError, match="outside"):
        cross_entropy([[0.5, 0.5]], [2])
    with pytest.raises(ValueError, match="outside"):
        cross_entropy([[0.5, 0.5]], [-1])
    for logits in ([0.5, 0.5], np.zeros((0, 2))):
        with pytest.raises(ValueError, match="nonempty"):
            cross_entropy(logits, [0])


def test_cross_entropy_rejects_labels_that_are_not_int64_whole_numbers():
    # 0.9 used to be truncated to class 0, and 1e20 overflowed
    for labels, named in (([0.9], "[0.9]"), ([1e20], "[1e+20]"), ([np.nan], "[nan]")):
        with pytest.raises(ValueError, match=re.escape(f"labels {named} are not whole numbers")):
            cross_entropy([[0.5, 0.5]], labels)
    whole, ints = cross_entropy([[0.0, 1.0]], [1.0]), cross_entropy([[0.0, 1.0]], [1])
    assert whole[0] == ints[0] and np.array_equal(whole[1], ints[1])


def test_cross_entropy_logits_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        analytic = cross_entropy(z, y)[1]
        fd = central_difference(lambda zz: cross_entropy(zz, y)[0], z)
        assert relative_gradient_error(analytic, fd) < 1e-6


def test_cross_entropy_equals_the_two_pass_formula_bit_for_bit():
    """One softmax gives the loss and gradient that a softmax in ``forward``,
    a loss read off its picked entries and ``(p.copy() - onehot) / n`` gave."""
    rng = np.random.default_rng(12)
    params = _tiny_params(rng, n_classes=4)
    for n in (1, 2, 7, 32, 48):
        z = forward(params, rng.normal(scale=3.0, size=(n, 3))).outputs[-1]
        z[0, 1] = -1000.0  # a picked probability that the 1e-12 clamp catches
        y = rng.integers(0, 4, size=n)
        y[0] = 1
        before = z.copy()
        p = z - z.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        rows = np.arange(n)
        want_loss = float(-np.mean(np.log(np.maximum(p[rows, y], 1e-12))))
        want_grad = p.copy()
        want_grad[rows, y] -= 1.0
        want_grad = want_grad / n
        loss, grad = cross_entropy(z, y)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)
        assert np.array_equal(z, before)  # the logits are read, never written


def test_backward_matches_finite_differences_with_taps():
    rng = np.random.default_rng(5)
    params = _tiny_params(rng, in_dim=2, hidden=(4,), bottleneck=3, n_classes=3)
    x = rng.normal(size=(5, 2))
    y = rng.integers(0, 3, size=5)
    tap_b = rng.normal(size=(5, 3))
    tap_l = rng.normal(size=(5, 3))
    beta = 0.37

    def loss_at(vec):
        p = ModelParams.on_buffer(vec, params)
        stack = forward(p, x)
        return (
            cross_entropy(stack.outputs[-1], y)[0]
            + beta * float(np.sum(tap_b * stack.outputs[-2]))
            + beta * float(np.sum(tap_l * stack.outputs[-1]))
        )

    stack = forward(params, x)
    grads = backward(params, stack, {-1: cross_entropy(stack.outputs[-1], y)[1] + beta * tap_l,
                                     -2: beta * tap_b})
    fd = central_difference(loss_at, params.flat, step=1e-6)
    assert relative_gradient_error(grads.flat, fd) < 1e-5


@pytest.mark.parametrize("hidden", [(4,), (4, 3)])
def test_backward_matches_finite_differences_at_every_layer(hidden):
    """A gradient at any layer's output, hidden layers included, one layer at
    a time and all at once (keyed from the logits)."""
    rng = np.random.default_rng(7)
    params = _tiny_params(rng, in_dim=2, hidden=hidden, bottleneck=3, n_classes=3)
    # Off the zero-bias init: a row whose hidden units are all dead would put
    # the next pre-activation at exactly 0, on the ReLU's kink.
    params.flat[:] += 0.3 * rng.normal(size=params.flat.size)
    x = rng.normal(size=(5, 2))
    stack = forward(params, x)
    taps = [rng.normal(size=h.shape) for h in stack.outputs]

    def check(layers):
        def loss_at(vec):
            outputs = forward(ModelParams.on_buffer(vec, params), x).outputs
            return sum(float(np.sum(taps[i] * outputs[i])) for i in layers)

        grads = backward(params, stack, {i - len(taps): taps[i] for i in layers})
        fd = central_difference(loss_at, params.flat, step=1e-6)
        assert relative_gradient_error(grads.flat, fd) < 1e-6, layers

    for i in range(len(taps)):
        check([i])
    check(range(len(taps)))


def test_backward_tap_validation():
    params = _tiny_params()
    stack = forward(params, np.zeros((2, 3)))
    dst = zeros_like_params(params)
    cases = [
        ({-1: np.zeros((3, 3))}, ValueError, r"logits gradient shape \(3, 3\)"),
        ({-2: np.zeros((2, 7))}, ValueError, r"bottleneck gradient shape \(2, 7\)"),
        ({0: np.zeros((2, 4))}, ValueError, r"hidden.0 gradient shape \(2, 4\)"),
        ({-1: np.zeros((2, 3)), 0: np.ones((2, 5)), -3: np.ones((2, 5))}, ValueError,
         "two gradients for one layer"),
        ({3: np.zeros((2, 3))}, IndexError, "range"),
        ({-4: np.zeros((2, 3))}, IndexError, "range"),
    ]
    for grads, error, message in cases:
        with pytest.raises(error, match=message):
            backward(params, stack, {-1: np.ones((2, 3)), **grads}, out=dst)
        assert not dst.flat.any()  # checked before anything is added


@pytest.mark.parametrize("hidden", [(), (5,), (5, 4)])
def test_backward_equals_layerwise_reference_bit_for_bit(hidden):
    rng = np.random.default_rng(11)
    params = _tiny_params(rng, hidden=hidden)
    stack = forward(params, rng.normal(size=(6, 3)))
    ce = cross_entropy(stack.outputs[-1], rng.integers(0, 3, size=6))[1]
    tap_b, tap_l = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
    ce[0, 0], tap_l[1, 1], tap_b[2, 2] = -0.0, -0.0, -0.0  # signed zeros must come out alike
    beta = 0.3
    cases = [  # (gradients by layer index, reference keyword arguments)
        ({-1: ce}, dict(logits_grad=ce)),
        ({-2: tap_b}, dict(tap_grads={"bottleneck": tap_b})),
        ({-1: beta * tap_l}, dict(tap_grads={"logits": tap_l}, beta=beta)),
        ({-2: beta * tap_b}, dict(tap_grads={"bottleneck": tap_b}, beta=beta)),
        ({-1: beta * tap_l, -2: beta * tap_b},
         dict(tap_grads={"bottleneck": tap_b, "logits": tap_l}, beta=beta)),
        ({-1: ce, -2: tap_b}, dict(logits_grad=ce, tap_grads={"bottleneck": tap_b})),
        ({-1: ce + beta * tap_l, -2: beta * tap_b},
         dict(logits_grad=ce, tap_grads={"bottleneck": tap_b, "logits": tap_l}, beta=beta)),
    ]
    start = rng.normal(size=params.flat.size)
    for new, ref in cases:
        assert np.array_equal(backward(params, stack, new).flat,
                              layerwise_backward(params, stack, **ref).flat)
        dst, ref_dst = (ModelParams.on_buffer(start.copy(), params) for _ in range(2))
        assert backward(params, stack, new, out=dst) is dst
        layerwise_backward(params, stack, out=ref_dst, **ref)
        assert np.array_equal(dst.flat, ref_dst.flat)


def _schedule(total_steps, **fields):
    """A config whose run is ``total_steps`` steps long, with the given schedule fields."""
    return TrainConfig(loops=1, steps_per_loop=total_steps, **fields)


def test_schedule_endpoint_values():
    config = _schedule(100, eta0=1e-3, lr_a=10.0, lr_b=0.75)
    assert config.eta_at(0) == 1e-3
    assert config.eta_at(99) == 1e-3 / (1.0 + 10.0 * 0.99) ** 0.75
    assert config.eta_at(99) == pytest.approx(0.00016669789914299245, rel=1e-12)


def test_schedule_strictly_decreasing():
    config = _schedule(50, eta0=2.25, lr_a=3.0, lr_b=0.75)
    grid = [config.eta_at(step) for step in range(50)]
    assert all(later < earlier for earlier, later in zip(grid, grid[1:]))


def test_schedule_validation():
    with pytest.raises(ValueError, match="eta0 must be > 0"):
        _schedule(10, eta0=0.0)
    for mult in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="logits_lr_mult"):
            _schedule(10, logits_lr_mult=mult)
    with pytest.raises(ValueError, match="momentum"):
        _schedule(10, momentum=1.0)
    # (1 + lr_a) ** lr_b overflows, or decays eta0 to zero
    for fields in (dict(lr_a=1e300, lr_b=2.0), dict(eta0=1e-300, lr_a=1e30, lr_b=1.0)):
        with pytest.raises(ValueError, match="lr_a=.* and lr_b=.*not positive and finite"):
            _schedule(10, **fields)
    with pytest.raises(ValueError, match="outside schedule of 0 steps"):
        TrainConfig(loops=0).eta_at(0)


def test_sgd_momentum_algebra():
    eta0, mu = 0.1, 0.9
    config = _schedule(2, eta0=eta0, lr_a=10.0, lr_b=0.75, momentum=mu)
    params = _scalar_params(1.0)
    velocity = zeros_like_params(params)
    g1, g2 = 0.5, -0.25

    assert config.eta_at(0) == eta0  # p = 0 on the first step
    assert sgd_step(params, _grad_like(params, bottleneck_w=g1), velocity, config, step=0) is None
    theta1 = 1.0 - eta0 * g1
    assert params.weights[-2][0, 0] == pytest.approx(theta1, abs=1e-15)

    sgd_step(params, _grad_like(params, bottleneck_w=g2), velocity, config, step=1)
    eta1 = eta0 / (1.0 + 10.0 * 0.5) ** 0.75
    theta2 = theta1 - eta1 * (mu * g1 + g2)
    assert params.weights[-2][0, 0] == pytest.approx(theta2, abs=1e-15)
    assert velocity.weights[-2][0, 0] == pytest.approx(mu * g1 + g2, abs=1e-15)


def test_sgd_logits_multiplier():
    config = _schedule(10, eta0=0.01, logits_lr_mult=10.0)
    params = _scalar_params(0.0)
    velocity = zeros_like_params(params)
    sgd_step(params, _grad_like(params, bottleneck_w=1.0, logits_w=1.0), velocity, config, 0)
    moved_b = -params.weights[-2][0, 0]
    moved_l = -params.weights[-1][0, 0]
    assert moved_l == pytest.approx(10.0 * moved_b, rel=1e-12)


def test_sgd_divergence_detection():
    config = _schedule(10, eta0=10.0)
    params = _scalar_params(1.0)
    velocity = zeros_like_params(params)
    bad = _grad_like(params, bottleneck_w=np.inf)
    with pytest.raises(ValueError, match="divergence: non-finite gradient at step 0"):
        sgd_step(params, bad, velocity, config, 0)
    huge = _grad_like(params, logits_w=np.finfo(float).max)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="divergence: non-finite parameters at step 0"):
            sgd_step(params, huge, velocity, config, 0)


def test_sgd_step_bounds():
    config = _schedule(5)
    params = _scalar_params(1.0)
    for step in (-1, 5):
        with pytest.raises(ValueError, match=f"step {step} outside schedule of 5 steps"):
            sgd_step(params, zeros_like_params(params), zeros_like_params(params), config, step)
        with pytest.raises(ValueError, match="outside schedule"):
            config.eta_at(step)


def test_training_drives_loss_down_on_separable_data():
    rng = np.random.default_rng(6)
    x = np.vstack([
        rng.normal(size=(20, 2)) + [4.0, 0.0],
        rng.normal(size=(20, 2)) - [4.0, 0.0],
    ])
    y = np.repeat([0, 1], 20)
    params = init_params(rng, 2, (8,), 4, 2)
    velocity = zeros_like_params(params)
    config = _schedule(2000, eta0=1e-2)
    for step in range(2000):
        stack = forward(params, x)
        grads = backward(params, stack, {-1: cross_entropy(stack.outputs[-1], y)[1]})
        sgd_step(params, grads, velocity, config, step)
    final = cross_entropy(forward(params, x).outputs[-1], y)[0]
    assert final < 0.05


def test_vector_round_trip():
    params = _tiny_params()
    vec = params.flat.copy()
    back = ModelParams.on_buffer(vec, params)
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(params), _arrays(back)))
    with pytest.raises(ValueError, match="length"):
        ModelParams.on_buffer(vec[:-1], params)


def test_params_need_one_bias_per_weight_and_two_layers():
    with pytest.raises(ValueError, match="one bias per weight"):
        ModelParams([np.zeros((1, 1)), np.zeros((1, 2))], [np.zeros(1)])
    with pytest.raises(ValueError, match="at least two layers"):
        ModelParams([np.zeros((1, 2))], [np.zeros(2)])


def test_backward_into_out_equals_add_params_bit_for_bit():
    rng = np.random.default_rng(8)
    params = _tiny_params(rng, hidden=(5, 4))
    x = rng.normal(size=(6, 3))
    stack = forward(params, x)
    ce = cross_entropy(stack.outputs[-1], rng.integers(0, 3, size=6))[1]
    tap_b, tap_l, beta = rng.normal(size=(6, 4)), rng.normal(size=(6, 3)), 0.3
    taps = {-1: ce + beta * tap_l, -2: beta * tap_b}
    dst = ModelParams.on_buffer(rng.normal(size=params.flat.size), params)
    ref = dst.copy()
    add_params_(ref, backward(params, stack, taps))
    assert backward(params, stack, taps, out=dst) is dst
    assert np.array_equal(dst.flat, ref.flat)


def test_add_params_accumulates():
    params = _tiny_params()
    total = zeros_like_params(params)
    add_params_(total, params)
    add_params_(total, params)
    assert np.allclose(total.flat, 2.0 * params.flat, atol=1e-15)


def test_checkpoint_round_trip_is_exact(tmp_path):
    params = _tiny_params(np.random.default_rng(7), in_dim=4, hidden=(6, 5), bottleneck=3)
    # make values ugly on purpose
    params.weights[-2][0, 0] = 1.0 / 3.0
    params.biases[-1][1] = -1e-17
    path = tmp_path / "ckpt.txt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(params), _arrays(loaded)))
    assert [w.shape for w in loaded.weights[:-2]] == [(4, 6), (6, 5)]
    # re-saving the loaded params reproduces the file byte for byte
    path2 = tmp_path / "ckpt2.txt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_foreign_files(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="not a recognized checkpoint"):
        load_checkpoint(path)
    truncated = tmp_path / "trunc.txt"
    truncated.write_text(f"{CHECKPOINT_HEADER}\nbottleneck.weight 2 2\n1 2\n")
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(truncated)
    missing = tmp_path / "missing.txt"
    missing.write_text(f"{CHECKPOINT_HEADER}\nbottleneck.weight 1 1\n0.5\n")
    with pytest.raises(ValueError, match="missing array"):
        load_checkpoint(missing)
    # a 1-wide bottleneck over 1-d inputs, then 2 logits; each case edits one block
    good = {"bottleneck.weight": "1 1\n0.5", "bottleneck.bias": "1 1\n0",
            "logits.weight": "1 2\n1 -1", "logits.bias": "1 2\n0 0"}
    cases = [
        ({"bottleneck.bias": "2 1\n0\n0"}, "shape mismatch for bottleneck.bias"),
        ({"bottleneck.bias": "1 2\n0 0"}, "shape mismatch for bottleneck.bias"),
        ({"logits.weight": "3 2\n1 -1\n1 -1\n1 -1"}, "shape mismatch for logits.weight"),
        ({"logits.weight": "1\n1 -1"}, "malformed header at line 6"),
        ({"hidden.1.weight": "1 1\n0"}, r"unexpected arrays \['hidden.1.weight'\]"),
        ({"logits.bias": "1 2\n0 0\nlogits.bias 1 2\n5 5"}, "duplicate array logits.bias"),
        ({"logits.weight": "1 2\n1 nan"}, "non-finite value in logits.weight"),
        ({"bottleneck.weight": "1 x\n0.5"}, "malformed header at line 2"),
        ({"bottleneck.weight": "-1 2\n0.5"}, "malformed header at line 2"),
        ({"bottleneck.weight": "1 1\nabc"}, "bad value in bottleneck.weight at line 3"),
    ]
    foreign = tmp_path / "foreign.txt"

    def write(blocks):
        foreign.write_text(CHECKPOINT_HEADER + "\n" + "".join(
            f"{name} {block}\n" for name, block in blocks.items()))

    write(good)
    assert load_checkpoint(foreign).n_classes == 2
    for edits, message in cases:
        write({**good, **edits})
        with pytest.raises(ValueError, match=message):
            load_checkpoint(foreign)
        # eval reads the checkpoint first, so the data path is never opened
        assert main(["eval", "--checkpoint", str(foreign), "--data", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {foreign}: ") and "Traceback" not in err
        assert re.search(message, err)


def _assert_on_flat(params):
    assert params.flat.ndim == 1 and params.flat.dtype == np.float64
    assert params.flat.flags.c_contiguous
    assert params.flat.size == sum(a.size for a in _arrays(params))
    assert all(np.shares_memory(a, params.flat) for a in _arrays(params))
    assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in _arrays(params)]))


def test_every_container_is_views_of_one_flat_vector(tmp_path):
    params = _tiny_params(hidden=(5, 4))
    save_checkpoint(params, tmp_path / "ckpt.txt")
    made = {
        "init": params,
        "zeros": zeros_like_params(params),
        "copy": params.copy(),
        "load_checkpoint": load_checkpoint(tmp_path / "ckpt.txt"),
        "on_buffer": ModelParams.on_buffer(params.flat.copy(), params),
        "backward": backward(params, forward(params, np.ones((2, 3))), {-1: np.ones((2, 3))}),
        "constructor": _scalar_params(2.0),
    }
    for name, p in made.items():
        _assert_on_flat(p)
        if p is not params:
            assert not np.shares_memory(p.flat, params.flat), name
    params.biases[-1][0] = 7.0  # writes through a view land in flat
    assert params.flat[-3] == 7.0


def _reference_sgd_step(params, grads, velocity, config, step):
    """The update written per array: v <- mu v + g; theta <- theta - eta*mult*v."""
    eta = config.eta0 / (1.0 + config.lr_a * (step / config.total_steps)) ** config.lr_b
    mults = [1.0] * (len(_arrays(params)) - 2) + [config.logits_lr_mult] * 2
    for theta, g, v, mult in zip(_arrays(params), _arrays(grads), _arrays(velocity), mults):
        v *= config.momentum
        v += g
        theta -= (eta * mult) * v


def test_sgd_step_matches_per_array_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    params = _tiny_params(rng, hidden=(6, 5))
    ref = params.copy()
    velocity, ref_velocity = zeros_like_params(params), zeros_like_params(params)
    config = _schedule(7, eta0=0.05, momentum=0.9, logits_lr_mult=10.0)
    for step in range(7):
        grads = ModelParams.on_buffer(rng.normal(size=params.flat.size), params)
        sgd_step(params, grads, velocity, config, step)
        _reference_sgd_step(ref, grads, ref_velocity, config, step)
        assert np.array_equal(params.flat, ref.flat)
        assert np.array_equal(velocity.flat, ref_velocity.flat)


def test_checkpoint_text_is_unchanged(tmp_path):
    params = ModelParams(
        weights=[np.array([[0.1, 1 / 3]]), np.array([[1.0], [2.5]]), np.array([[0.7, -0.7]])],
        biases=[np.array([-1e-17, 2.0]), np.array([0.0]), np.array([1e300, -0.0])],
    )
    save_checkpoint(params, tmp_path / "ckpt.txt")
    assert (tmp_path / "ckpt.txt").read_text() == (
        "contradapt-checkpoint v1\n"
        "hidden.0.weight 1 2\n0.10000000000000001 0.33333333333333331\n"
        "hidden.0.bias 1 2\n-1.0000000000000001e-17 2\n"
        "bottleneck.weight 2 1\n1\n2.5\n"
        "bottleneck.bias 1 1\n0\n"
        "logits.weight 1 2\n0.69999999999999996 -0.69999999999999996\n"
        "logits.bias 1 2\n1.0000000000000001e+300 -0\n"
    )
