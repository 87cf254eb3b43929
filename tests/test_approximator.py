import numpy as np
import pytest

from ssm_diffusion import approximator as ap
from ssm_diffusion.errors import ConfigurationError, NumericError, ShapeError


def quadratic_loss(p, x, target):
    """(loss, grads) of |net(x) - target|^2 for one input vector x at the
    current values of p."""
    def loss_and_grads():
        out, activations = ap.mlp_forward(p, x[None, :])
        resid = out - target
        return float(np.sum(resid ** 2)), ap.mlp_backward(p, activations,
                                                          2.0 * resid)
    return loss_and_grads


def test_init_deterministic():
    p1 = ap.mlp_init([2, 1], seed=7)
    p2 = ap.mlp_init([2, 1], seed=7)
    for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
        assert np.array_equal(a, b)


def test_init_shapes():
    p = ap.mlp_init([3, 4, 2], seed=0)
    assert p.weights[0].shape == (4, 3)
    assert p.weights[1].shape == (2, 4)
    assert p.biases[0].shape == (4,)
    assert p.biases[1].shape == (2,)


def test_weights_and_biases_are_views_of_theta():
    p = ap.mlp_init([3, 4, 2], seed=1)
    assert p.theta.shape == (ap.param_count([3, 4, 2]),) == (4 * 3 + 2 * 4
                                                            + 4 + 2,)
    # every weight matrix in layer order, then every bias
    assert b"".join(a.tobytes() for a in p.weights + p.biases) \
        == p.theta.tobytes()
    p.theta[0] = 5.0
    p.theta[4 * 3 + 2 * 4] = -7.0
    assert p.weights[0][0, 0] == 5.0 and p.biases[0][0] == -7.0
    p.weights[1][1, 3] = 9.0
    assert p.theta[4 * 3 + 7] == 9.0
    with pytest.raises(ShapeError):
        ap.MlpParams(layer_sizes=[3, 4, 2], theta=np.zeros(5))


def test_init_rejects_bad_sizes():
    with pytest.raises(ConfigurationError):
        ap.mlp_init([2], seed=0)
    with pytest.raises(ConfigurationError):
        ap.mlp_init([2, 0, 1], seed=0)


def test_init_scale_follows_fan_in():
    p = ap.mlp_init([100, 50], seed=3)
    assert np.max(np.abs(p.weights[0])) <= 1.0 / np.sqrt(100)
    assert np.all(p.biases[0] == 0.0)


def test_forward_zero_params_zero_output():
    p = ap.mlp_init([3, 5, 2], seed=0)
    for w in p.weights:
        w[:] = 0.0
    out, _ = ap.mlp_forward(p, np.array([[1.0, -2.0, 3.0]]))
    assert np.array_equal(out, np.zeros((1, 2)))


def test_forward_affine_1layer():
    p = ap.MlpParams(layer_sizes=[1, 1], theta=np.array([2.0, 1.0]))
    out, _ = ap.mlp_forward(p, np.array([[3.0], [-1.0]]))
    np.testing.assert_allclose(out, [[7.0], [-1.0]])


def test_forward_dim_mismatch():
    p = ap.mlp_init([3, 2], seed=0)
    for x in (np.zeros((1, 4)), np.zeros(3), np.zeros((1, 1, 3))):
        with pytest.raises(ShapeError):
            ap.mlp_forward(p, x)


def test_forward_batched_matches_rows():
    p = ap.mlp_init([3, 8, 2], seed=5)
    xs = np.random.default_rng(0).normal(size=(4, 3))
    batch_out, _ = ap.mlp_forward(p, xs)
    for r in range(4):
        row_out, _ = ap.mlp_forward(p, xs[r:r + 1])
        np.testing.assert_allclose(batch_out[r:r + 1], row_out, rtol=1e-14)


def test_backward_zero_grad():
    p = ap.mlp_init([2, 4, 3], seed=1)
    _, activations = ap.mlp_forward(p, np.array([[0.5, -0.5]]))
    g = ap.mlp_backward(p, activations, np.zeros((1, 3)))
    for arr in g.weights + g.biases:
        assert np.all(arr == 0.0)


def test_backward_affine_outer_product():
    p = ap.MlpParams(layer_sizes=[2, 2],
                     theta=np.array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0]))
    x = np.array([[0.3, -0.8]])
    _, activations = ap.mlp_forward(p, x)
    g_out = np.array([[1.5, -2.5]])
    g = ap.mlp_backward(p, activations, g_out)
    np.testing.assert_allclose(g.weights[0], np.outer(g_out, x))
    np.testing.assert_allclose(g.biases[0], g_out[0])


def test_backward_matches_finite_differences():
    p = ap.mlp_init([4, 8, 8, 3], seed=2)
    x = np.random.default_rng(3).normal(size=4)
    err = ap.grad_check(p, quadratic_loss(p, x, np.array([0.1, -0.2, 0.3])),
                        h=1e-5)
    assert err < 1e-4


def test_grad_check_linear_net_exact():
    p = ap.mlp_init([3, 2], seed=4)
    err = ap.grad_check(p, quadratic_loss(p, np.array([1.0, 2.0, -1.0]),
                                          np.zeros(2)), h=1e-5)
    assert err < 1e-7


def test_grad_check_rejects_zero_h():
    p = ap.mlp_init([2, 1], seed=0)
    with pytest.raises(ConfigurationError):
        ap.grad_check(p, quadratic_loss(p, np.zeros(2), np.zeros(1)), h=0.0)


def test_adam_first_step_magnitude():
    # bias-corrected adam step 1 moves each coordinate by ~lr, independent of g
    for scale in (1.0, 100.0):
        p = ap.mlp_init([2, 2], seed=0)
        g = ap.MlpParams(layer_sizes=[2, 2], theta=np.full(6, scale))
        state = ap.init_opt_state(p, lr=0.01)
        p2, _ = ap.opt_step(p, g, state)
        np.testing.assert_allclose(p.weights[0] - p2.weights[0], 0.01,
                                   rtol=1e-5)


def test_zero_gradient_is_noop():
    p = ap.mlp_init([3, 4, 1], seed=9)
    zeros = ap.MlpParams(layer_sizes=p.layer_sizes,
                         theta=np.zeros_like(p.theta))
    state = ap.init_opt_state(p, lr=0.1)
    p2, state = ap.opt_step(p, zeros, state)
    for a, b in zip(p.weights + p.biases, p2.weights + p2.biases):
        np.testing.assert_array_equal(a, b)
    assert state.step_count == 1


def test_opt_step_rejects_nonfinite():
    p = ap.mlp_init([2, 1], seed=0)
    g = ap.MlpParams(layer_sizes=[2, 1], theta=np.array([np.nan, 0.0, 0.0]))
    state = ap.init_opt_state(p, lr=0.1)
    with pytest.raises(NumericError):
        ap.opt_step(p, g, state)


# the ids name the hidden layers' activation, ReLU
@pytest.mark.parametrize("sizes", [[5, 2], [5, 4, 2], [5, 4, 3, 2],
                                   [5, 4, 3, 3, 2]],
                         ids=["relu-no-hidden", "relu-one-hidden",
                              "relu-two-hidden", "relu-three-hidden"])
def test_fold_biases_folds_inputs_into_bias(sizes):
    rng = np.random.default_rng(4)
    net = ap.mlp_init(sizes, seed=1)
    net.theta[...] = rng.uniform(-1.0, 1.0, net.theta.size)
    theta = net.theta.copy()
    x, context = rng.standard_normal((6, 2)), rng.standard_normal((4, 3))
    if len(sizes) == 2:
        # no hidden layer to take the context
        with pytest.raises(ShapeError, match="no hidden layer"):
            ap.fold_biases(net, 2, context)
        return
    folded = ap.fold_biases(net, 2, context)
    assert folded.first.shape[0] == 4
    out = ap.folded_buffers(folded, 6)
    for j, c in enumerate(context):
        full, _ = ap.mlp_forward(net, np.hstack([x, np.tile(c, (6, 1))]))
        got = ap.folded_forward(folded, j, x, out)
        np.testing.assert_allclose(got, full, rtol=0, atol=1e-14)
    with pytest.raises(ShapeError):
        ap.folded_forward(folded, 0, np.hstack([x, x]), out)
    # the fold is a read-only copy: it cannot be written, and net is as it
    # was
    for a in [folded.first, *folded.weights, folded.bias]:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    np.testing.assert_array_equal(net.theta, theta)
    for bad in (0, 1, 6):
        with pytest.raises(ShapeError, match="inputs"):
            ap.fold_biases(net, bad, context)
    with pytest.raises(ShapeError, match="inputs"):
        ap.fold_biases(net, 2, context[0])


def test_copy_params_is_independent():
    a = ap.mlp_init([2, 3, 1], seed=1)
    c = ap.copy_params(a)
    assert np.array_equal(c.weights[0], a.weights[0])
    c.weights[0][0, 0] += 1.0
    assert c.weights[0][0, 0] != a.weights[0][0, 0]


def per_layer_step(params, grads, state):
    """Reference Adam step at Adam's published defaults over the per-layer
    arrays, one layer's weights and biases at a time. Returns (weights,
    biases, m, v), m and v as per-layer (weights, biases) pairs."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    new_w, new_b, ms, vs = [], [], [], []
    t = state.step_count + 1
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m = ap.MlpParams(params.layer_sizes, state.m)
    v = ap.MlpParams(params.layer_sizes, state.v)
    for l, (w, b, gw, gb) in enumerate(zip(params.weights, params.biases,
                                           grads.weights, grads.biases)):
        mw = beta1 * m.weights[l] + (1 - beta1) * gw
        mb = beta1 * m.biases[l] + (1 - beta1) * gb
        vw = beta2 * v.weights[l] + (1 - beta2) * gw ** 2
        vb = beta2 * v.biases[l] + (1 - beta2) * gb ** 2
        ms.append((mw, mb))
        vs.append((vw, vb))
        new_w.append(w - state.lr * (mw / bc1) / (np.sqrt(vw / bc2) + eps))
        new_b.append(b - state.lr * (mb / bc1) / (np.sqrt(vb / bc2) + eps))
    return new_w, new_b, ms, vs


# the id names the optimizer
@pytest.mark.parametrize("lr", [0.01], ids=["adam"])
def test_opt_step_matches_per_layer_reference(lr):
    rng = np.random.default_rng(8)
    p = ap.mlp_init([5, 7, 3], seed=2)
    p.theta += rng.normal(size=p.theta.shape)
    state = ap.init_opt_state(p, lr=lr)
    for _ in range(3):
        g = ap.MlpParams(p.layer_sizes, rng.normal(size=p.theta.shape))
        p_before, g_before = p.theta.copy(), g.theta.copy()
        ref_w, ref_b, ref_m, ref_v = per_layer_step(p, g, state)
        p_new, state = ap.opt_step(p, g, state)
        # the input parameters and gradients are untouched
        np.testing.assert_array_equal(p.theta, p_before)
        np.testing.assert_array_equal(g.theta, g_before)
        assert p_new.theta is not p.theta
        assert [a.tobytes() for a in p_new.weights + p_new.biases] \
            == [a.tobytes() for a in ref_w + ref_b]
        for flat, ref in ((state.m, ref_m), (state.v, ref_v)):
            moments = ap.MlpParams(p.layer_sizes, flat)
            assert [a.tobytes() for a in moments.weights + moments.biases] \
                == [w.tobytes() for w, _ in ref] \
                + [b.tobytes() for _, b in ref]
        p = p_new
