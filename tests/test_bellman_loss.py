import copy
import os
import subprocess
import sys

import numpy as np
import pytest

import ssm_diffusion
from ssm_diffusion import approximator as ap
from ssm_diffusion import bellman_loss as bl
from ssm_diffusion import diffusion as df
from ssm_diffusion import mdp as m
from ssm_diffusion import runner
from ssm_diffusion.config import validate_config
from ssm_diffusion.errors import ConfigurationError
from ssm_diffusion.replay import ReplayBuffer


def make_setup(width=4, height=1, horizon=4, p_move=1.0, hidden=(8, 8),
               seed=0, **trainer_kw):
    g = m.gridworld_new(width, height, p_move=p_move, horizon=horizon)
    pol = m.policy_fixed_action(g, 3)
    sched = df.make_schedule(8, 0.01, 0.2)
    trainer = bl.make_trainer(sched, g, hidden_sizes=hidden, seed=seed,
                              **trainer_kw)
    buf = ReplayBuffer(g, pol, 50)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        buf.push_trajectory(m.rollout(g, pol, rng, start=0))
    return trainer, buf, g, pol, rng


def get_tuple(buf, rng, want_l1):
    while True:
        tup = buf.sample_tuple(rng)
        if tup.is_l1 == want_l1 and tup.n > 1:
            return tup


def mixed_batch(buf, rng, size=8):
    """`size` replayed tuples with at least two L1 and two L2 rows."""
    while True:
        batch = [buf.sample_tuple(rng) for _ in range(size)]
        if 2 <= sum(t.is_l1 for t in batch) <= size - 2:
            return batch


def draws(trainer, size, rng):
    """Per-row diffusion steps and noise for a batch of `size` rows."""
    return (rng.integers(1, trainer.sched.K + 1, size=size),
            rng.standard_normal((size, 2)))


def zero_net(trainer, which="online", bias=None):
    net = getattr(trainer, which)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    if bias is not None:
        net.biases[-1][:] = bias


def row_loss(trainer, tup, i, eps):
    """Reference loss of one row, assembled as the sampler assembles its
    input: a one-row batch with scalar-index conditioning and step."""
    x0 = m.encode_state(trainer.mdp, tup.s_next if tup.is_l1 else tup.x)
    x_i = df.forward_noise(trainer.sched, x0, i, eps)[None, :]
    out, _ = ap.mlp_forward(trainer.online, df.net_input(
        x_i, bl.conditioning(trainer, tup.s, tup.a, tup.n, i)))
    y = eps
    if not tup.is_l1:
        y, _ = ap.mlp_forward(trainer.target, df.net_input(
            x_i, bl.conditioning(trainer, tup.s_next, tup.a_next, tup.n - 1,
                                 i)))
    resid = (out - y)[0]
    return float(resid @ resid)


# one case, whose id names the loss every trainer uses: a one-hot horizon,
# current-pair conditioning and the unit ("simple") weight
LOSS_ID = ["onehot-current-simple"]


def combo_setup():
    trainer, buf, _, _, rng = make_setup(seed=3)
    # a target that differs from the online net, so L2 residuals are not
    # just the conditioning difference
    trainer.target = ap.mlp_init(trainer.online.layer_sizes, seed=4)
    # biases off their zero init: with zero biases a row whose first layer
    # is all inactive puts every second-layer unit exactly on the ReLU
    # kink, where central differences see half a slope
    for b in trainer.online.biases + trainer.target.biases:
        b[:] = rng.uniform(-0.1, 0.1, b.shape)
    batch = mixed_batch(buf, rng)
    return trainer, batch, *draws(trainer, len(batch), rng)


@pytest.mark.parametrize("case", LOSS_ID)
def test_td_loss_gradient_finite_differences(case):
    trainer, batch, i, eps = combo_setup()
    # h=1e-4: at 1e-5 one ulp of the loss over 2h is ~1e-13, the size of
    # the gap on this batch's smallest gradient entries (~2e-10)
    err = ap.grad_check(trainer.online,
                        lambda: bl.td_loss(trainer, batch, i, eps), h=1e-4)
    assert err < 1e-4


@pytest.mark.parametrize("case", LOSS_ID)
def test_td_loss_matches_per_row_reference(case):
    trainer, batch, i, eps = combo_setup()
    loss, _ = bl.td_loss(trainer, batch, i, eps)
    ref = np.mean([row_loss(trainer, t, int(i[r]), eps[r])
                   for r, t in enumerate(batch)])
    assert loss == pytest.approx(ref, rel=1e-12)


def test_td_loss_zero_net_l1_rows_equal_eps_norm():
    trainer, buf, _, _, rng = make_setup()
    zero_net(trainer)
    batch = [get_tuple(buf, rng, want_l1=True) for _ in range(2)]
    eps = np.array([[0.3, -1.2], [0.5, 0.1]])
    loss, _ = bl.td_loss(trainer, batch, np.array([3, 5]), eps)
    assert loss == pytest.approx(float(np.mean(np.sum(eps ** 2, axis=1))))


def test_td_loss_constant_offset_on_l2_rows():
    trainer, buf, _, _, rng = make_setup()
    c = np.array([0.4, -0.9])
    zero_net(trainer, "online", bias=c)
    zero_net(trainer, "target")
    batch = [get_tuple(buf, rng, want_l1=False) for _ in range(3)]
    loss, _ = bl.td_loss(trainer, batch, np.array([2, 2, 7]),
                         np.array([[0.1, 0.2], [0.0, 1.0], [-2.0, 0.3]]))
    assert loss == pytest.approx(float(c @ c))


def test_td_loss_rows_take_branch_from_flag():
    # constant online output c, zero target: an L1 row regresses c onto its
    # noise, an L2 row onto the target's 0
    trainer, buf, _, _, rng = make_setup()
    c = np.array([0.4, -0.9])
    zero_net(trainer, "online", bias=c)
    zero_net(trainer, "target")
    batch = mixed_batch(buf, rng)
    i, eps = draws(trainer, len(batch), rng)
    loss, _ = bl.td_loss(trainer, batch, i, eps)
    rows = [float((c - e) @ (c - e)) if t.is_l1 else float(c @ c)
            for t, e in zip(batch, eps)]
    assert loss == pytest.approx(np.mean(rows))


def test_loss_l1_contract():
    # an L1 row never reads the target network: a target full of NaN leaves
    # its loss and gradients as they are with the online net's own copy
    trainer, buf, _, _, rng = make_setup()
    batch = [get_tuple(buf, rng, want_l1=True) for _ in range(3)]
    i, eps = draws(trainer, len(batch), rng)
    loss, grads = bl.td_loss(trainer, batch, i, eps)
    grads = ap.copy_params(grads)   # the next call overwrites td_loss's
    for a in trainer.target.weights + trainer.target.biases:
        a[:] = np.nan
    loss_nan, grads_nan = bl.td_loss(trainer, batch, i, eps)
    assert loss_nan == loss
    for a, b in zip(grads.weights + grads.biases,
                    grads_nan.weights + grads_nan.biases):
        np.testing.assert_array_equal(a, b)


def test_loss_l2_contract():
    # an L2 row regresses onto the target network, never onto its noise:
    # with a zero online net and a target that outputs the constant c, the
    # loss is |c|^2 whatever the noise
    trainer, buf, _, _, rng = make_setup()
    c = np.array([0.4, -0.9])
    zero_net(trainer, "online")
    zero_net(trainer, "target", bias=c)
    batch = [get_tuple(buf, rng, want_l1=False) for _ in range(3)]
    i = np.array([1, 4, 8])
    for eps in (np.zeros((3, 2)), rng.standard_normal((3, 2))):
        loss, _ = bl.td_loss(trainer, batch, i, eps)
        assert loss == pytest.approx(float(c @ c))


def test_loss_l1_gradient_finite_differences():
    trainer, buf, _, _, rng = make_setup(hidden=(8, 8))
    tup = get_tuple(buf, rng, want_l1=True)
    err = ap.grad_check(trainer.online, lambda: bl.td_loss(
        trainer, [tup], np.array([4]), np.array([[0.5, -0.7]])), h=1e-5)
    assert err < 1e-4


def test_loss_l2_gradient_finite_differences():
    trainer, buf, _, _, rng = make_setup(hidden=(8, 8), seed=3)
    tup = get_tuple(buf, rng, want_l1=False)
    err = ap.grad_check(trainer.online, lambda: bl.td_loss(
        trainer, [tup], np.array([5]), np.array([[-0.3, 0.8]])), h=1e-5)
    assert err < 1e-4


def test_td_loss_self_consistency_at_fixed_point():
    # target is a bit-exact copy of online at init: under identical
    # conditioning the two outputs coincide (residual 0), while the actual
    # L2 conditioning (n vs n-1, and s vs s' in "current" mode) differs, so
    # the loss is nonzero in general
    trainer, buf, g, _, rng = make_setup()
    tup = get_tuple(buf, rng, want_l1=False)
    eps = np.array([[0.1, -0.1]])
    x_i = df.forward_noise(trainer.sched, m.encode_state(g, [tup.x]), 2, eps)
    cond = bl.conditioning(trainer, tup.s_next, tup.a_next, tup.n - 1, 2)
    inp = df.net_input(x_i, cond)
    out_online, _ = ap.mlp_forward(trainer.online, inp)
    out_target, _ = ap.mlp_forward(trainer.target, inp)
    np.testing.assert_array_equal(out_online, out_target)
    loss, _ = bl.td_loss(trainer, [tup], np.array([2]), eps)
    assert loss > 0.0


def test_stop_gradient_target_untouched():
    trainer, buf, _, _, rng = make_setup(sync_period=10**9)
    before = [a.copy() for a in
              trainer.target.weights + trainer.target.biases]
    for _ in range(20):
        batch = [buf.sample_tuple(rng) for _ in range(8)]
        bl.train_step(trainer, batch, rng)
    after = trainer.target.weights + trainer.target.biases
    for a, b in zip(before, after):
        np.testing.assert_array_equal(a, b)


def test_td_loss_grads_shaped_like_online_only():
    # the target output is a constant of the loss: its gradients match
    # finite differences that hold the target fixed (checked above), they
    # are shaped like the online net, and computing them changes no network
    trainer, buf, _, _, rng = make_setup()
    trainer.target = ap.mlp_init(trainer.online.layer_sizes, seed=9)
    before = [a.copy() for a in trainer.online.weights + trainer.target.weights]
    batch = mixed_batch(buf, rng)
    _, grads = bl.td_loss(trainer, batch, *draws(trainer, len(batch), rng))
    assert grads.layer_sizes == trainer.online.layer_sizes
    for a, b in zip(before, trainer.online.weights + trainer.target.weights):
        np.testing.assert_array_equal(a, b)


def test_td_loss_n1_always_l1():
    trainer, buf, _, _, rng = make_setup(horizon=1)
    batch = [buf.sample_tuple(rng) for _ in range(20)]
    assert all(t.is_l1 for t in batch)
    loss, _ = bl.td_loss(trainer, batch, *draws(trainer, len(batch), rng))
    assert np.isfinite(loss)


def test_td_loss_deterministic():
    trainer, buf, _, _, rng = make_setup()
    batch = mixed_batch(buf, rng)
    i, eps = draws(trainer, len(batch), rng)
    l1, g1 = bl.td_loss(trainer, batch, i, eps)
    g1 = ap.copy_params(g1)         # the next call overwrites td_loss's
    l2, g2 = bl.td_loss(trainer, batch, i, eps)
    assert l1 == l2
    for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
        np.testing.assert_array_equal(a, b)


def test_td_loss_work_area_follows_batch_size():
    # one trainer's work area, rebuilt as B changes, gives what a new
    # trainer gives on each batch
    trainer, buf, _, _, rng = make_setup()
    fresh = copy.deepcopy(trainer)
    for size in (8, 3, 8):
        batch = mixed_batch(buf, rng, size=max(size, 4))[:size]
        i, eps = draws(trainer, size, rng)
        loss, grads = bl.td_loss(trainer, batch, i, eps)
        ref_loss, ref_grads = bl.td_loss(copy.deepcopy(fresh), batch, i, eps)
        assert loss == ref_loss
        assert grads.theta.tobytes() == ref_grads.theta.tobytes()
        assert grads is trainer.work.grads


def test_conditioning_rejects_out_of_range_horizon():
    trainer, _, _, _, _ = make_setup(horizon=4)
    for n in (0, 5):
        with pytest.raises(ValueError, match="horizon"):
            bl.conditioning(trainer, 0, 3, n, 1)
    with pytest.raises(ValueError, match="horizon"):
        bl.conditioning(trainer, [0, 1], [3, 3], np.array([1, 0]), 1)


def test_conditioning_rejects_out_of_range_state_and_action():
    trainer, _, _, _, _ = make_setup(width=4, horizon=4)
    for s, a in ((4, 3), (-1, 3), ([0, -1], [3, 3]), (0, 4), ([0], [-1])):
        with pytest.raises(IndexError, match="out of range"):
            bl.conditioning(trainer, s, a, 1, 1)


def test_float_indices_are_refused_not_truncated():
    trainer, _, _, _, _ = make_setup(horizon=4)
    for s, a, n, i in ((1.0, 3, 1, 1), (0, 3.0, 1, 1), (0, 3, 2.0, 1),
                       (0, 3, [1.0, 2.0], 1), (0, 3, 1, 2.0),
                       (0, 3, 1, np.float64(2.0)),
                       (0, 3, 1, np.array([1.0, 2.0])),
                       (np.array([0.0, 1.0]), 3, 1, 1)):
        with pytest.raises(IndexError, match="not an integer"):
            bl.conditioning(trainer, s, a, n, i)


# one bad field in one row of a mixed batch on make_setup's 4-state,
# 4-action, H=4 chain: (field, bad value, branch of the row). a_next and x
# are read only on L2 rows in "current" mode.
BAD_ROWS = [(f, v, l1) for f in ("s", "a", "s_next") for v in (-1, 4)
            for l1 in (True, False)] + \
    [(f, v, False) for f in ("a_next", "x") for v in (-1, 4)]


@pytest.mark.parametrize("field, value, is_l1", BAD_ROWS)
def test_td_loss_rejects_out_of_range_index(field, value, is_l1):
    trainer, buf, _, _, rng = make_setup()
    batch = mixed_batch(buf, rng)
    r = next(r for r, t in enumerate(batch) if t.is_l1 == is_l1)
    batch[r] = batch[r]._replace(**{field: value})
    with pytest.raises(IndexError, match="out of range"):
        bl.td_loss(trainer, batch, *draws(trainer, len(batch), rng))


@pytest.mark.parametrize("n", [0, 5])
@pytest.mark.parametrize("is_l1", [True, False])
def test_td_loss_rejects_out_of_range_horizon(n, is_l1):
    trainer, buf, _, _, rng = make_setup(horizon=4)
    batch = mixed_batch(buf, rng)
    r = next(r for r, t in enumerate(batch) if t.is_l1 == is_l1)
    batch[r] = batch[r]._replace(n=n)
    with pytest.raises(ValueError, match="horizon"):
        bl.td_loss(trainer, batch, *draws(trainer, len(batch), rng))


@pytest.mark.parametrize("step", [0, 9])
def test_td_loss_rejects_out_of_range_diffusion_step(step):
    trainer, buf, _, _, rng = make_setup()    # K = 8
    batch = mixed_batch(buf, rng)
    i, eps = draws(trainer, len(batch), rng)
    i[3] = step
    with pytest.raises(IndexError, match="diffusion step"):
        bl.td_loss(trainer, batch, i, eps)
    # and conditioning, the sampler's path, for one step or a vector
    for steps in (step, i):
        with pytest.raises(IndexError, match="diffusion step .* out of range"):
            bl.conditioning(trainer, 0, 3, 1, steps)


def test_empty_index_vectors_give_empty_encodings():
    trainer, _, _, _, _ = make_setup(horizon=4)
    empty = np.zeros(0, dtype=np.int64)
    cond = bl.conditioning(trainer, empty, empty, empty, empty)
    assert cond.shape == (0, trainer.online.layer_sizes[0] - 2)
    inputs = df.net_input(np.zeros((0, 2)), cond)
    assert inputs.shape == (0, trainer.online.layer_sizes[0])


def test_branch_fraction_matches_one_over_n():
    trainer, buf, _, _, rng = make_setup(width=8, horizon=4)
    hits = total = 0
    for _ in range(100_000):
        tup = buf.sample_tuple(rng)
        if tup.n == 4:
            total += 1
            hits += tup.is_l1
    se = np.sqrt(0.25 * 0.75 / total)
    assert abs(hits / total - 0.25) < 3 * se


def test_branch_decomposition_expectation():
    # E[td_loss | n] = (1/n) E[L1] + ((n-1)/n) E[L2] within MC error
    trainer, buf, _, _, rng = make_setup(width=8, horizon=4, seed=5)
    losses, l1_losses, l2_losses = [], [], []
    draw_rng = np.random.default_rng(17)
    for _ in range(20_000):
        tup = buf.sample_tuple(rng)
        if tup.n != 4:
            continue
        loss, _ = bl.td_loss(trainer, [tup], *draws(trainer, 1, draw_rng))
        losses.append(loss)
        (l1_losses if tup.is_l1 else l2_losses).append(loss)
    lhs = np.mean(losses)
    rhs = 0.25 * np.mean(l1_losses) + 0.75 * np.mean(l2_losses)
    # the branch frequency is the only random part linking the two sides
    p_hat = len(l1_losses) / len(losses)
    se = 3 * np.std(losses) / np.sqrt(len(losses))
    assert abs(lhs - rhs) < se + abs(p_hat - 0.25) * abs(
        np.mean(l1_losses) - np.mean(l2_losses))


def test_train_step_matches_td_loss():
    # train_step draws every row's step, then every row's noise
    trainer, buf, _, _, rng = make_setup()
    batch = mixed_batch(buf, rng)
    i, eps = draws(trainer, len(batch), np.random.default_rng(23))
    loss, grads = bl.td_loss(trainer, batch, i, eps)
    expected, _ = ap.opt_step(trainer.online, grads,
                              copy.deepcopy(trainer.opt))
    stats = bl.train_step(trainer, batch, np.random.default_rng(23))
    assert stats["loss"] == loss
    for a, b in zip(expected.weights + expected.biases,
                    trainer.online.weights + trainer.online.biases):
        np.testing.assert_array_equal(a, b)


def test_train_step_hard_sync_every_step():
    trainer, buf, _, _, rng = make_setup(sync_period=1)
    for _ in range(3):
        batch = [buf.sample_tuple(rng) for _ in range(4)]
        bl.train_step(trainer, batch, rng)
        for a, b in zip(trainer.target.weights + trainer.target.biases,
                        trainer.online.weights + trainer.online.biases):
            np.testing.assert_array_equal(a, b)


def test_sync_target_hard_period():
    trainer, _, _, _, _ = make_setup(sync_period=500)
    trainer.online.weights[0][0, 0] += 1.0
    trainer.opt.step_count = 499
    bl.sync_target(trainer)
    assert trainer.target.weights[0][0, 0] != trainer.online.weights[0][0, 0]
    trainer.opt.step_count = 500
    bl.sync_target(trainer)
    np.testing.assert_array_equal(trainer.target.weights[0],
                                  trainer.online.weights[0])


def test_sync_period_below_one_refused():
    # a target never copied from the online network stays the random init
    with pytest.raises(ConfigurationError, match="sync_period"):
        make_setup(sync_period=0)


def test_train_step_empty_batch_rejected():
    trainer, _, _, _, _ = make_setup()
    with pytest.raises(ValueError):
        bl.train_step(trainer, [], np.random.default_rng(0))


def test_degenerate_single_state_loss_goes_to_zero():
    # 1x1 grid: the successor measure is a point mass; the denoiser can fit
    # it almost exactly, so the training loss collapses
    g = m.gridworld_new(1, 1, horizon=4)
    pol = m.policy_fixed_action(g, 0)
    sched = df.make_schedule(8, 0.01, 0.2)
    trainer = bl.make_trainer(sched, g, hidden_sizes=(32, 32), seed=1,
                              lr=3e-3, sync_period=100)
    buf = ReplayBuffer(g, pol, 20)
    rng = np.random.default_rng(0)
    for _ in range(5):
        buf.push_trajectory(m.rollout(g, pol, rng))
    losses = []
    for _ in range(2000):
        batch = [buf.sample_tuple(rng) for _ in range(16)]
        losses.append(bl.train_step(trainer, batch, rng)["loss"])
    assert np.mean(losses[-100:]) < 0.02


# -- the train step against a reference made of the per-call encoders ------

def ref_conditioning(trainer, s, a, n):
    """(state, action, one-hot horizon) encodings from the per-call
    encoders."""
    return (m.encode_state(trainer.mdp, s), m.encode_action(trainer.mdp, a),
            np.eye(trainer.mdp.horizon)[np.asarray(n) - 1])


def ref_net_input(trainer, x_i, ctx, i):
    state, action, horizon = ctx
    parts = [state, action,
             df.sinusoidal_embedding(i, trainer.step_table.shape[1]),
             horizon]
    return np.hstack([x_i] + [np.broadcast_to(c, (len(x_i), c.shape[-1]))
                              for c in parts])


def ref_backward(params, activations, g):
    """Backward pass with a float copy of the ReLU mask."""
    grads = np.empty_like(params.theta)
    view = ap.MlpParams(params.layer_sizes, grads)
    for l in range(len(params.weights) - 1, -1, -1):
        view.weights[l][...] = g.T @ activations[l]
        view.biases[l][...] = np.sum(g, axis=0)
        if l > 0:
            g = (g @ params.weights[l]) * (activations[l] > 0.0).astype(float)
    return view


def ref_td_loss(trainer, batch, i, eps):
    s, a, s_next, a_next, x, n, is_l1 = np.array(batch).T
    is_l1 = is_l1.astype(bool)
    x0 = m.encode_state(trainer.mdp, np.where(is_l1, s_next, x))
    x_i = df.forward_noise(trainer.sched, x0, i, eps)
    targets = np.array(eps, dtype=float)
    l2 = ~is_l1
    if l2.any():
        ctx = ref_conditioning(trainer, s_next[l2], a_next[l2], n[l2] - 1)
        targets[l2], _ = ap.mlp_forward(
            trainer.target, ref_net_input(trainer, x_i[l2], ctx, i[l2]))
    out, activations = ap.mlp_forward(trainer.online, ref_net_input(
        trainer, x_i, ref_conditioning(trainer, s, a, n), i))
    resid = out - targets
    loss = float(np.mean(np.sum(resid ** 2, axis=1)))
    return loss, ref_backward(trainer.online, activations,
                              (2.0 / len(batch)) * resid)


def ref_opt_step(params, grads, state):
    """The out-of-place Adam formula, at Adam's published defaults, on
    fresh moment vectors."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    g = grads.theta
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    state.m = beta1 * state.m + (1 - beta1) * g
    state.v = beta2 * state.v + (1 - beta2) * g ** 2
    theta = params.theta - state.lr * (state.m / bc1) / (
        np.sqrt(state.v / bc2) + eps)
    return ap.MlpParams(params.layer_sizes, theta)


def ref_train_step(trainer, batch, rng):
    i = rng.integers(1, trainer.sched.K + 1, size=len(batch))
    eps = rng.standard_normal((len(batch), 2))
    loss, grads = ref_td_loss(trainer, batch, i, eps)
    trainer.online = ref_opt_step(trainer.online, grads, trainer.opt)
    bl.sync_target(trainer)
    return loss


def assert_train_steps_bit_exact(trainer, batches, seed=31):
    """train_step and ref_train_step on a deep copy of trainer, over the
    same batches and equal generators: every loss, both networks, Adam's
    moments and the generators' end states agree byte for byte."""
    ref = copy.deepcopy(trainer)
    run_rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
    for batch in batches:
        loss = bl.train_step(trainer, batch, run_rng)["loss"]
        assert np.float64(loss).tobytes() == \
            np.float64(ref_train_step(ref, batch, ref_rng)).tobytes()
    for net in ("online", "target"):
        assert getattr(trainer, net).theta.tobytes() == \
            getattr(ref, net).theta.tobytes()
    assert trainer.opt.m.tobytes() == ref.opt.m.tobytes()
    assert trainer.opt.v.tobytes() == ref.opt.v.tobytes()
    assert run_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("case", LOSS_ID)
def test_train_step_bit_exact_against_reference(case):
    # a short sync period, so the target both lags and is refreshed
    trainer, buf, _, _, rng = make_setup(width=3, height=3, horizon=4,
                                         seed=6, sync_period=7)
    assert_train_steps_bit_exact(
        trainer, [[buf.sample_tuple(rng) for _ in range(16)]
                  for _ in range(24)])


def shape_batches(buf, rng, case):
    """The batches of one bit-exact case: rows of one branch only (the
    target's input slice empty or full), one row, or a batch size that
    changes from step to step."""
    if case in ("all-l1", "all-l2"):
        return [[get_tuple(buf, rng, want_l1=case == "all-l1")
                 for _ in range(16)] for _ in range(12)]
    sizes = [1] * 12 if case == "b1" else [16, 3, 1, 16, 7, 2, 16, 5] * 2
    return [[buf.sample_tuple(rng) for _ in range(size)] for size in sizes]


@pytest.mark.parametrize("case", ["all-l1", "all-l2", "b1", "b-varies"])
def test_train_step_bit_exact_batch_shapes(case):
    trainer, buf, _, _, rng = make_setup(width=3, height=3, horizon=4,
                                         seed=6, sync_period=7)
    assert_train_steps_bit_exact(trainer, shape_batches(buf, rng, case))


def test_train_step_bit_exact_headline_shape():
    # 10 steps of the headline shape: 5x5 grid, H=8, K=32, [128, 128],
    # B=128, Adam
    cfg = validate_config({
        "env": {"width": 5, "height": 5, "p_move": 0.8, "horizon": 8},
        "model": {"hidden_sizes": [128, 128]},
        "training": {"steps": 0, "seed": 1, "batch_size": 128,
                     "optimizer": "adam"}})
    mdp, policy = runner.build_env(cfg)
    trainer = runner.build_trainer(cfg)
    buf = ReplayBuffer(mdp, policy, 100)
    rng = np.random.default_rng(1)
    for _ in range(100):
        buf.push_trajectory(m.rollout(mdp, policy, rng))
    assert_train_steps_bit_exact(
        trainer, [[buf.sample_tuple(rng) for _ in range(128)]
                  for _ in range(10)])


@pytest.mark.parametrize("width, height, step_dim",
                         [(5, 5, 8), (1, 3, 9), (4, 1, 2)],
                         ids=["onehot-5-5-8", "onehot-1-3-9", "onehot-4-1-2"])
def test_encoding_tables_equal_per_call_encoders(width, height, step_dim):
    g = m.gridworld_new(width, height, horizon=6)
    trainer = bl.make_trainer(df.make_schedule(16, 0.01, 0.2), g,
                              hidden_sizes=(4,), step_dim=step_dim)
    for s in range(g.n_states):
        assert trainer.state_table[s].tobytes() == \
            m.encode_state(g, s).tobytes()
    for a in range(g.n_actions):
        assert trainer.action_table[a].tobytes() == \
            m.encode_action(g, a).tobytes()
    for n in range(1, g.horizon + 1):
        assert trainer.horizon_table[n - 1].tobytes() == \
            ref_conditioning(trainer, 0, 0, n)[2].tobytes()
    for i in range(1, trainer.sched.K + 1):
        assert trainer.step_table[i - 1].tobytes() == \
            df.sinusoidal_embedding(i, step_dim).tobytes()
    # and as the per-call encoders give a batch of indices
    rng = np.random.default_rng(2)
    s = rng.integers(g.n_states, size=40)
    a = rng.integers(g.n_actions, size=40)
    n = rng.integers(1, g.horizon + 1, size=40)
    i = rng.integers(1, trainer.sched.K + 1, size=40)
    cond = bl.conditioning(trainer, s, a, n, i)
    assert cond.tobytes() == ref_net_input(
        trainer, np.empty((40, 0)), ref_conditioning(trainer, s, a, n),
        i).tobytes()
    x = rng.standard_normal((40, 2))
    assert df.net_input(x, cond).tobytes() == ref_net_input(
        trainer, x, ref_conditioning(trainer, s, a, n), i).tobytes()


def test_sampler_conditioning_from_tables_bit_exact():
    # the sampler reads the trainer's tables through conditioning;
    # conditioning from the per-call encoders gives the same samples
    trainer, _, _, _, _ = make_setup(width=3, height=3, seed=2)
    tau = trainer.sched.tau
    cond = bl.conditioning(trainer, 4, 1, 3, tau)
    per_call = ref_net_input(trainer, np.empty((len(tau), 0)),
                             ref_conditioning(trainer, 4, 1, 3), tau)
    got, want = (df.sample(trainer.sched, trainer.online, c, 700,
                           np.random.default_rng(5)) for c in (cond, per_call))
    assert got.tobytes() == want.tobytes()


# 100 warm-up and 200 counted steps of the headline shape (5x5 grid, H=8,
# K=32, [128, 128], B=128, Adam), each as runner.run_training takes it
FAULTS_SCRIPT = """
import resource
import numpy as np
from ssm_diffusion import bellman_loss as bl, mdp as m, runner
from ssm_diffusion.config import validate_config
from ssm_diffusion.replay import ReplayBuffer
cfg = validate_config({
    "env": {"width": 5, "height": 5, "p_move": 0.8, "horizon": 8},
    "model": {"hidden_sizes": [128, 128]},
    "training": {"steps": 0, "seed": 0, "batch_size": 128,
                 "optimizer": "adam", "initial_trajectories": 100}})
mdp, policy = runner.build_env(cfg)
trainer = runner.build_trainer(cfg)
buf = ReplayBuffer(mdp, policy, 1000)
rng = np.random.default_rng(0)
for _ in range(100):
    buf.push_trajectory(m.rollout(mdp, policy, rng))
def step(k):
    if k % 10 == 0:
        buf.push_trajectory(m.rollout(mdp, policy, rng))
    bl.train_step(trainer, [buf.sample_tuple(rng) for _ in range(128)], rng)
for k in range(100):
    step(k)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for k in range(100, 300):
    step(k)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200)
"""


def test_train_step_page_faults_per_step():
    # a fresh process: one that has freed large arrays has raised glibc's
    # mmap and trim thresholds, and a step's temporaries would then stay
    # mapped whether or not the step allocates them
    src = os.path.dirname(os.path.dirname(ssm_diffusion.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 10
