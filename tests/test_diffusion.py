import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import ssm_diffusion
from ssm_diffusion import approximator as ap
from ssm_diffusion import bellman_loss as bl
from ssm_diffusion import diffusion as df
from ssm_diffusion import mdp as m
from ssm_diffusion.errors import ConfigurationError, NumericError, ShapeError


def test_schedule_basic_products():
    sched = df.make_schedule(2, 0.1, 0.1)
    np.testing.assert_allclose(sched.alpha, [0.9, 0.9])
    np.testing.assert_allclose(sched.alpha_bar, [0.9, 0.81])


def test_schedule_single_step():
    sched = df.make_schedule(1, 0.5, 0.5)
    np.testing.assert_allclose(sched.alpha_bar, [0.5])


def test_schedule_rejects_bad_beta():
    with pytest.raises(ConfigurationError):
        df.make_schedule(4, 0.1, 1.0)
    with pytest.raises(ConfigurationError):
        df.make_schedule(4, 0.0, 0.2)
    with pytest.raises(ConfigurationError):
        df.make_schedule(0, 0.1, 0.2)


def test_default_schedule_alpha_bar_properties():
    sched = df.make_schedule(32, 1e-4, 0.2)
    assert np.all(np.diff(sched.alpha_bar) < 0)
    assert sched.alpha_bar[-1] < 0.05


def test_forward_noise_zero_epsilon():
    sched = df.make_schedule(2, 0.1, 0.1)
    x0 = np.array([2.0, -1.0])
    out = df.forward_noise(sched, x0, 2, np.zeros(2))
    np.testing.assert_allclose(out, np.sqrt(0.81) * x0)


def test_forward_noise_formula():
    sched = df.make_schedule(2, 0.1, 0.1)  # alpha_bar[1] = 0.81
    out = df.forward_noise(sched, np.array([1.0, 0.0]), 2,
                           np.array([0.0, 1.0]))
    np.testing.assert_allclose(out, [0.9, np.sqrt(0.19)])


def test_forward_noise_tables_bit_exact_against_formula():
    # the schedule's square-root tables give the bits of the square roots
    # taken per call
    sched = df.make_schedule(32, 1e-4, 0.2)
    rng = np.random.default_rng(5)
    x0, eps = rng.standard_normal((64, 2)), rng.standard_normal((64, 2))
    i = rng.integers(1, 33, size=64)
    ab = sched.alpha_bar[i - 1][:, None]
    assert df.forward_noise(sched, x0, i, eps).tobytes() == \
        (np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps).tobytes()


def test_forward_noise_step_out_of_range():
    sched = df.make_schedule(2, 0.1, 0.1)
    with pytest.raises(IndexError):
        df.forward_noise(sched, np.zeros(2), 3, np.zeros(2))


def test_forward_marginal_monte_carlo():
    sched = df.make_schedule(32, 1e-4, 0.2)
    rng = np.random.default_rng(7)
    x0 = np.array([1.0, -0.5])
    i = 16
    eps = rng.standard_normal((100_000, 2))
    xs = df.forward_noise(sched, np.broadcast_to(x0, (100_000, 2)), i, eps)
    ab = sched.alpha_bar[i - 1]
    np.testing.assert_allclose(xs.mean(axis=0), np.sqrt(ab) * x0, rtol=0.01)
    np.testing.assert_allclose(xs.var(axis=0), 1.0 - ab, rtol=0.01)


def test_loss_weight_simple():
    sched = df.make_schedule(5, 0.05, 0.2)
    assert all(df.loss_weight(sched, i) == 1.0 for i in range(1, 6))
    np.testing.assert_array_equal(df.loss_weight(sched, np.array([1, 5])),
                                  [1.0, 1.0])


def test_loss_weight_index_error():
    sched = df.make_schedule(2, 0.1, 0.1)
    for bad in (0, 3, np.array([1, 3])):
        with pytest.raises(IndexError):
            df.loss_weight(sched, bad)


def step_conditioning(K, d=8, **context):
    """Conditioning on `context` with the embeddings of steps 1..K, d wide."""
    return df.Conditioning(
        step_table=df.sinusoidal_embedding(np.arange(1, K + 1), d), **context)


def fold_unconditional(sched, net):
    """net, which takes x alone, folded with a zero-width context for each
    of sched's steps."""
    return ap.fold_biases(net, net.layer_sizes[0], np.zeros((sched.K, 0)))


def folded_step(sched, net, x_i, i, z):
    """reverse_step on net folded with a zero-width context."""
    folded = fold_unconditional(sched, net)
    return df.reverse_step(sched, folded, x_i, i, z,
                           ap.folded_buffers(folded, len(x_i)))


def test_reverse_step_zero_prediction():
    sched = df.make_schedule(2, 0.1, 0.1)
    net = ap.mlp_init([2, 4, 2], seed=0)
    for w in net.weights:
        w[:] = 0.0
    x = np.array([[1.0, -2.0], [0.5, 0.0]])
    out = folded_step(sched, net, x, 2, np.zeros((2, 2)))
    np.testing.assert_allclose(out, x / np.sqrt(0.9))


def test_reverse_step_no_noise_at_step_one():
    sched = df.make_schedule(2, 0.1, 0.1)
    net = ap.mlp_init([2, 4, 2], seed=0)
    x = np.array([[0.5, 0.5]])
    a = folded_step(sched, net, x, 1, np.zeros((1, 2)))
    b = folded_step(sched, net, x, 1, np.full((1, 2), 100.0))
    np.testing.assert_array_equal(a, b)


def test_reverse_step_shape_error():
    sched = df.make_schedule(2, 0.1, 0.1)
    net = ap.mlp_init([2, 4, 2], seed=0)
    with pytest.raises(ShapeError):
        folded_step(sched, net, np.zeros((1, 2)), 2, np.zeros((1, 3)))


def test_sample_count_precondition():
    sched = df.make_schedule(2, 0.1, 0.1)
    net = ap.mlp_init([2 + 8, 4, 2], seed=0)
    with pytest.raises(ConfigurationError):
        df.sample(sched, net, step_conditioning(sched.K), 0,
                  np.random.default_rng(0))


def test_sample_deterministic_given_seed():
    sched = df.make_schedule(8, 0.01, 0.2)
    net = ap.mlp_init([2 + 8, 16, 2], seed=3)
    cond = step_conditioning(sched.K)
    for count in (5, 2 * df.BLOCK_ROWS + 37):
        a = df.sample(sched, net, cond, count, np.random.default_rng(42))
        b = df.sample(sched, net, cond, count, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


def reference_chain(sched, net, cond, count, rng):
    """The reverse chain on the unfolded network: each step concatenates
    x with the conditioning and runs the full first layer."""
    dim = net.layer_sizes[-1]
    x = rng.standard_normal((count, dim))
    for i in range(sched.K, 0, -1):
        z = rng.standard_normal((count, dim)) if i > 1 else np.zeros((count, dim))
        eps_pred, _ = ap.mlp_forward(net, df.net_input(x, cond, i))
        beta, ab = sched.beta[i - 1], sched.alpha_bar[i - 1]
        x = (x - beta / np.sqrt(1.0 - ab) * eps_pred) / np.sqrt(sched.alpha[i - 1])
        if i > 1:
            x = x + sched.sigma[i - 1] * z
    return x


def strided_tau(K, steps):
    return np.array([K]) if steps == 1 \
        else np.rint(np.linspace(1, K, steps)).astype(int)


def ddim_eta_one_step(alpha_bar, alpha_bar_prev, x, eps_pred, z):
    """DDIM's update at eta = 1 in x0-hat form (Song et al., 2020, eq. 12):
    the predicted x0, moved to alpha_bar_prev's noise level along the
    predicted noise, plus the posterior's noise."""
    x0 = (x - np.sqrt(1.0 - alpha_bar) * eps_pred) / np.sqrt(alpha_bar)
    var = (1.0 - alpha_bar_prev) / (1.0 - alpha_bar) \
        * (1.0 - alpha_bar / alpha_bar_prev)
    x = np.sqrt(alpha_bar_prev) * x0 \
        + np.sqrt(1.0 - alpha_bar_prev - var) * eps_pred
    return x if z is None else x + np.sqrt(var) * z


def strided_reference_chain(sched, net, cond, count, steps, rng):
    """The reverse chain over `steps` of sched's K steps on the unfolded
    network, each step DDIM's eta = 1 update from diffusion step tau_j to
    tau_{j-1}, and from tau_1 to x0."""
    dim = net.layer_sizes[-1]
    tau = strided_tau(sched.K, steps)
    x = rng.standard_normal((count, dim))
    for j in range(steps, 0, -1):
        z = rng.standard_normal((count, dim)) if j > 1 else None
        eps_pred, _ = ap.mlp_forward(net, df.net_input(x, cond, tau[j - 1]))
        prev = sched.alpha_bar[tau[j - 2] - 1] if j > 1 else 1.0
        x = ddim_eta_one_step(sched.alpha_bar[tau[j - 1] - 1], prev, x,
                              eps_pred, z)
    return x


@pytest.mark.parametrize("K", [1, 8])
@pytest.mark.parametrize("conditioned", [True, False],
                         ids=["conditioned", "unconditional"])
# the ids name the activation and the one-hot horizon that the conditioned
# cases encode
@pytest.mark.parametrize("seed", [5], ids=["relu-onehot"])
def test_sample_matches_unfolded_reference(seed, conditioned, K):
    sched = df.make_schedule(K, 0.01, 0.2)
    if conditioned:
        g = m.gridworld_new(3, 3, horizon=4)
        trainer = bl.make_trainer(sched, g, hidden_sizes=(16, 16), seed=seed)
        net, cond = trainer.online, bl.conditioning(trainer, 4, 1, 3)
    else:
        net = ap.mlp_init([2 + 8, 16, 16, 2], seed=seed)
        cond = step_conditioning(K)
    # non-zero biases, so the folded first-layer bias carries them too
    for b in net.biases:
        b[...] = np.random.default_rng(6).uniform(-0.5, 0.5, b.shape)
    theta = net.theta.copy()
    # one block, two blocks, and three with a ragged last block
    for count in (300, df.BLOCK_ROWS + 1, 2 * df.BLOCK_ROWS + 37):
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        folded = df.sample(sched, net, cond, count, rng_a)
        reference = reference_chain(sched, net, cond, count, rng_b)
        # only the order of the first layer's sums differs
        np.testing.assert_allclose(folded, reference, rtol=0, atol=1e-12)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        np.testing.assert_array_equal(net.theta, theta)


def block_chain_reference(sched, net, cond, count, rng):
    """The row-blocked chain with each layer's bias added after its matmul:
    the first layer split after x, its bias carrying each step's context
    product, then mlp_forward over blocks of at most BLOCK_ROWS rows."""
    dim = net.layer_sizes[-1]
    ctx = df.net_input(np.empty((sched.K, 0)), cond, np.arange(1, sched.K + 1))
    sizes = [dim] + net.layer_sizes[1:]
    head = ap.MlpParams(sizes, np.empty(ap.param_count(sizes)))
    head.weights[0][...] = net.weights[0][:, :dim]
    for dst, src in zip(head.weights[1:] + head.biases,
                        net.weights[1:] + net.biases):
        dst[...] = src
    bias = ctx @ net.weights[0][:, dim:].T + net.biases[0]
    x = rng.standard_normal((count, dim))
    for i in range(sched.K, 0, -1):
        z = rng.standard_normal((count, dim)) if i > 1 else np.zeros((count, dim))
        head.biases[0][...] = bias[i - 1]
        for r in range(0, count, df.BLOCK_ROWS):
            rows = slice(r, r + df.BLOCK_ROWS)
            eps_pred, _ = ap.mlp_forward(head, x[rows])
            beta, ab = sched.beta[i - 1], sched.alpha_bar[i - 1]
            x[rows] = (x[rows] - beta / np.sqrt(1.0 - ab) * eps_pred) \
                / np.sqrt(sched.alpha[i - 1])
            if i > 1:
                x[rows] += sched.sigma[i - 1] * z[rows]
    return x


def headline_trainer(hidden_sizes=(128, 128), K=32, seed=999):
    """A trainer of the headline shape (5x5 grid, H=8), with every bias
    non-zero so that the folded biases carry values."""
    sched = df.make_schedule(K, 1e-4, 0.2)
    g = m.gridworld_new(5, 5, horizon=8)
    trainer = bl.make_trainer(sched, g, hidden_sizes=hidden_sizes, seed=seed)
    rng = np.random.default_rng(6)
    for b in trainer.online.biases:
        b[...] = rng.uniform(-0.5, 0.5, b.shape)
    return trainer


def test_sample_bit_exact_against_block_chain_headline():
    trainer = headline_trainer()
    cond = bl.conditioning(trainer, 12, 1, 5)
    for count in (2000, 2 * df.BLOCK_ROWS + 37):
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        got = df.sample(trainer.sched, trainer.online, cond, count, rng_a)
        want = block_chain_reference(trainer.sched, trainer.online, cond,
                                     count, rng_b)
        assert got.tobytes() == want.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("count", [1, df.BLOCK_ROWS + 1, 2 * df.BLOCK_ROWS + 37])
@pytest.mark.parametrize("hidden_sizes, K", [
    ((64,), 32),
    ((32, 32, 32), 8),
    ((32, 32, 32), 1),
], ids=["one-hidden", "three-hidden", "K1"])
def test_sample_close_to_block_chain(hidden_sizes, K, count):
    # the three-hidden-layer cases fail unless the ones columns pass the
    # ReLUs unchanged: they carry the second and third layers' biases
    trainer = headline_trainer(hidden_sizes, K)
    net, cond = trainer.online, bl.conditioning(trainer, 7, 2, 3)
    theta = net.theta.copy()
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    got = df.sample(trainer.sched, net, cond, count, rng_a)
    want = block_chain_reference(trainer.sched, net, cond, count, rng_b)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(m.decode_states(trainer.mdp, got)[0],
                                  m.decode_states(trainer.mdp, want)[0])
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    np.testing.assert_array_equal(net.theta, theta)


def test_one_draw_over_steps_equals_per_step_draws():
    # sample draws the noise of every step at once, into an array
    for steps, count in ((1, 5), (4, 2000), (7, 1061), (31, 2000)):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        ahead = np.empty((steps, count, 2))
        rng_a.standard_normal(out=ahead)
        for step in ahead:
            assert rng_b.standard_normal((count, 2)).tobytes() == step.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("K", [1, 2, 8, 32])
def test_respace_to_every_step_is_the_schedule(K):
    sched = df.make_schedule(K, 1e-4, 0.2)
    assert df.respace(sched, K) is sched
    # so the full chain keeps make_schedule's variance, beta
    assert sched.sigma.tobytes() == np.sqrt(sched.beta).tobytes()


def test_respace_step_subsequence():
    sched = df.make_schedule(32, 1e-4, 0.2)
    np.testing.assert_array_equal(
        df.respace(sched, 16).tau,
        [1, 3, 5, 7, 9, 11, 13, 15, 18, 20, 22, 24, 26, 28, 30, 32])
    np.testing.assert_array_equal(df.respace(sched, 1).tau, [32])
    np.testing.assert_array_equal(df.respace(sched, 2).tau, [1, 32])
    for K in range(2, 65):
        other = df.make_schedule(K, 1e-4, 0.2)
        for steps in range(2, K + 1):
            tau = df.respace(other, steps).tau
            assert len(tau) == steps and tau[0] == 1 and tau[-1] == K
            assert (np.diff(tau) > 0).all()
    for steps in (0, 33):
        with pytest.raises(ConfigurationError, match="steps"):
            df.respace(sched, steps)


@pytest.mark.parametrize("K, steps", [(32, 16), (32, 8), (32, 31), (32, 2),
                                      (32, 1), (8, 3), (5, 1), (2, 1)])
def test_respaced_step_is_ddim_eta_one(K, steps):
    # a network whose output is a fixed eps, so the update's coefficients
    # on x, eps and z are compared at every step
    sched = df.make_schedule(K, 1e-4, 0.2)
    resp = df.respace(sched, steps)
    assert resp.K == steps
    tau = strided_tau(K, steps)
    np.testing.assert_array_equal(resp.tau, tau)
    net = ap.mlp_init([2, 4, 2], seed=1)
    net.theta[...] = 0.0
    eps = np.array([0.7, -1.3])
    net.biases[-1][...] = eps
    rng = np.random.default_rng(K * 100 + steps)
    x, z = rng.standard_normal((64, 2)), rng.standard_normal((64, 2))
    for j in range(1, steps + 1):
        prev = sched.alpha_bar[tau[j - 2] - 1] if j > 1 else 1.0
        want = ddim_eta_one_step(sched.alpha_bar[tau[j - 1] - 1], prev,
                                 x, eps, z if j > 1 else None)
        got = folded_step(resp, net, x, j, z)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("K, steps", [(32, 16), (32, 7), (8, 3), (8, 1)])
def test_respaced_sample_matches_strided_reference(monkeypatch, K, steps):
    trainer = headline_trainer((16, 16), K=K)
    resp = df.respace(trainer.sched, steps)
    cond = bl.conditioning(trainer, 7, 2, 3)
    for count in (300, 2 * df.BLOCK_ROWS + 37):
        for workers in (1, 2):
            monkeypatch.setattr(df, "WORKERS", workers)
            rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
            got = df.sample(resp, trainer.online, cond, count, rng_a,
                            trainer.chain_work)
            want = strided_reference_chain(trainer.sched, trainer.online, cond,
                                           count, steps, rng_b)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            # x, then steps - 1 steps of noise: one draw of them all
            rng_c = np.random.default_rng(4)
            rng_c.standard_normal(steps * count * 2)
            assert rng_a.bit_generator.state == rng_c.bit_generator.state


def test_respaced_sample_names_the_original_diffusion_step(monkeypatch):
    trainer = headline_trainer((16,), K=32)
    resp = df.respace(trainer.sched, 16)
    cond = bl.conditioning(trainer, 7, 2, 3)
    step = df.reverse_step

    def poisoned(sched, net, x_i, i, z, out=None):
        x = step(sched, net, x_i, i, z, out=out)
        if i == 9:
            x[0, 0] = np.nan
        return x

    monkeypatch.setattr(df, "reverse_step", poisoned)
    # the chain's step 9 stands for diffusion step 18
    with pytest.raises(NumericError, match="reverse step 18$"):
        df.sample(resp, trainer.online, cond, 100, np.random.default_rng(1))


def sample_with_workers(monkeypatch, workers, trainer, cond, count, seed,
                        work=None):
    """sample's output bytes and generator end state with the worker count
    forced to `workers`."""
    monkeypatch.setattr(df, "WORKERS", workers)
    rng = np.random.default_rng(seed)
    x = df.sample(trainer.sched, trainer.online, cond, count, rng, work)
    return x.tobytes(), rng.bit_generator.state


@pytest.mark.parametrize("K", [1, 2, 32])
# the ids name the hidden layers' activation, ReLU
@pytest.mark.parametrize("hidden_sizes", [(16,), (16, 16), (16, 16, 16)],
                         ids=["relu-one-hidden", "relu-two-hidden",
                              "relu-three-hidden"])
def test_sample_parallel_equals_serial(monkeypatch, hidden_sizes, K):
    # one block (1 and BLOCK_ROWS rows), two, three with a ragged last
    # one, and 20. The parallel chains share the trainer's work area
    trainer = headline_trainer(hidden_sizes, K=K)
    cond = bl.conditioning(trainer, 7, 2, 3)
    for count in (1, df.BLOCK_ROWS, df.BLOCK_ROWS + 1,
                  2 * df.BLOCK_ROWS + 37, 10000):
        serial = sample_with_workers(monkeypatch, 1, trainer, cond, count, 9)
        parallel = sample_with_workers(monkeypatch, 2, trainer, cond, count,
                                       9, trainer.chain_work)
        assert serial == parallel


def test_sample_more_workers_than_cores(monkeypatch):
    # 5 workers over 20 blocks, with the interpreter switching threads
    # every microsecond: a block taken by two workers or by none, or a
    # result or error slot lost, would change the bytes or the count of
    # blocks run. The workers read one fold, each with its own buffers
    trainer = headline_trainer((16, 16), K=8)
    cond = bl.conditioning(trainer, 7, 2, 3)
    want = sample_with_workers(monkeypatch, 1, trainer, cond, 10000, 2)
    step, first_steps, nets = df.reverse_step, [], set()
    fold, folds = df.fold_biases, []

    def counting(sched, net, x_i, i, z, out=None):
        if i == sched.K:
            first_steps.append(x_i.shape[0])
        nets.add(id(net))
        return step(sched, net, x_i, i, z, out=out)

    def counting_folds(*args):
        folds.append(fold(*args))
        return folds[-1]

    monkeypatch.setattr(df, "reverse_step", counting)
    monkeypatch.setattr(df, "fold_biases", counting_folds)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sample_with_workers(monkeypatch, 5, trainer, cond, 10000, 2,
                                  trainer.chain_work)
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert len(folds) == 1 and nets == {id(folds[0])}
    buffers = trainer.chain_work.out
    assert len(buffers) == 5
    assert len({id(a) for out in buffers for a in out}) == 5 * len(buffers[0])
    assert trainer.chain_work.noise.size == 7 * 10000 * 2
    full, ragged = divmod(10000, df.BLOCK_ROWS)
    assert sorted(first_steps) == [ragged] + [df.BLOCK_ROWS] * full


def test_sample_reuses_the_work_area(monkeypatch):
    monkeypatch.setattr(df, "WORKERS", 2)
    trainer = headline_trainer((16, 16), K=4)
    cond = bl.conditioning(trainer, 7, 2, 3)
    work = df.ChainWork()
    arrays = []
    for count in (2000, 2 * df.BLOCK_ROWS + 37, 300, 2000):
        want = df.sample(trainer.sched, trainer.online, cond, count,
                         np.random.default_rng(3))
        got = df.sample(trainer.sched, trainer.online, cond, count,
                        np.random.default_rng(3), work)
        assert got.tobytes() == want.tobytes()
        arrays.append([a for out in work.out for a in out] + [work.noise])
    # the 300-row chain, a single block, takes the first buffer set's
    # leading rows
    assert len(work.out) == 2
    assert all(a is b for later in arrays[1:] for a, b in zip(arrays[0], later))


def test_sample_follows_a_changed_network(monkeypatch):
    # a trainer's network changes between its chains: the next chain on its
    # work area equals a fresh chain of the new network
    monkeypatch.setattr(df, "WORKERS", 2)
    trainer = headline_trainer((16, 16), K=4)
    cond = bl.conditioning(trainer, 7, 2, 3)
    work = df.ChainWork()
    count = 2 * df.BLOCK_ROWS + 37
    old = df.sample(trainer.sched, trainer.online, cond, count,
                    np.random.default_rng(3), work)
    trainer.online.theta[...] *= 1.5
    for count in (300, count):
        want = df.sample(trainer.sched, trainer.online, cond, count,
                         np.random.default_rng(3))
        got = df.sample(trainer.sched, trainer.online, cond, count,
                        np.random.default_rng(3), work)
        assert got.tobytes() == want.tobytes()
    assert got.tobytes() != old.tobytes()


def test_sample_non_finite_step_same_serial_and_parallel(monkeypatch):
    # output weights so large that the chain overflows part-way
    trainer = headline_trainer((16,), K=32)
    trainer.online.weights[-1][...] *= 1e20
    cond = bl.conditioning(trainer, 7, 2, 3)
    messages = []
    for workers in (1, 2):
        monkeypatch.setattr(df, "WORKERS", workers)
        with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
            df.sample(trainer.sched, trainer.online, cond,
                      2 * df.BLOCK_ROWS + 37, np.random.default_rng(1))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    step = int(messages[0].rsplit(" ", 1)[1])
    assert messages[0] == f"non-finite sample values at reverse step {step}"
    assert 1 < step < 26


@pytest.mark.parametrize("full_step, ragged_step", [(24, 22), (22, 24)])
def test_sample_raises_for_the_earliest_non_finite_step(
        monkeypatch, full_step, ragged_step):
    # at 1061 rows the two full blocks go non-finite at one step and the
    # ragged last block at another, whichever worker takes them: the
    # chain reports the earlier in its order
    trainer = headline_trainer((16,), K=32)
    cond = bl.conditioning(trainer, 7, 2, 3)
    step = df.reverse_step

    def poisoned(sched, net, x_i, i, z, out=None):
        x = step(sched, net, x_i, i, z, out=out)
        full = x_i.shape[0] == df.BLOCK_ROWS
        if i == (full_step if full else ragged_step):
            x[0, 0] = np.nan
        return x

    monkeypatch.setattr(df, "reverse_step", poisoned)
    earliest = max(full_step, ragged_step)
    with pytest.raises(NumericError, match=f"reverse step {earliest}$"):
        sample_with_workers(monkeypatch, 2, trainer, cond,
                            2 * df.BLOCK_ROWS + 37, 1)


def test_sample_workers_keep_the_callers_errstate(monkeypatch):
    trainer = headline_trainer((16,), K=8)
    cond = bl.conditioning(trainer, 7, 2, 3)
    step, seen, other_ran = df.reverse_step, set(), threading.Event()

    def recording(*args, **kwargs):
        seen.add((threading.get_ident(), np.geterr()["over"]))
        # this thread holds its first block until the other worker has
        # taken one, so that the 3 blocks cannot all go to this thread
        if threading.current_thread() is threading.main_thread():
            other_ran.wait(timeout=10)
        else:
            other_ran.set()
        return step(*args, **kwargs)

    monkeypatch.setattr(df, "reverse_step", recording)
    with np.errstate(over="raise"):
        sample_with_workers(monkeypatch, 2, trainer, cond,
                            2 * df.BLOCK_ROWS + 37, 4)
    assert len(seen) == 2 and {over for _, over in seen} == {"raise"}


def test_sample_worker_exception_reaches_caller(monkeypatch):
    trainer = headline_trainer((16,), K=8)
    cond = bl.conditioning(trainer, 7, 2, 3)
    count = 2 * df.BLOCK_ROWS + 37
    want = sample_with_workers(monkeypatch, 1, trainer, cond, count, 4)
    step, threads = df.reverse_step, set()

    def failing_off_the_main_thread(*args, **kwargs):
        threads.add(threading.get_ident())
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        return step(*args, **kwargs)

    monkeypatch.setattr(df, "reverse_step", failing_off_the_main_thread)
    with pytest.raises(RuntimeError, match="worker failed"):
        sample_with_workers(monkeypatch, 2, trainer, cond, count, 4)
    assert len(threads) == 2
    monkeypatch.setattr(df, "reverse_step", step)
    assert sample_with_workers(monkeypatch, 2, trainer, cond, count, 4) == want


def test_sample_workers_meet_once_per_chain(monkeypatch):
    # one queue of blocks for the whole chain: the workers start and meet
    # once, whether one step's noise is 32 KB or 160 KB
    trainer = headline_trainer((16,), K=32)
    cond = bl.conditioning(trainer, 7, 2, 3)
    run_all, calls, started = df._run_all, [], []

    def counting_run_all(fn, arg_lists):
        calls.append(len(arg_lists))
        return run_all(fn, arg_lists)

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(df, "_run_all", counting_run_all)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    for chains, count in enumerate((2 * df.BLOCK_ROWS + 37, 2000, 10000), 1):
        sample_with_workers(monkeypatch, 2, trainer, cond, count, 5,
                            trainer.chain_work)
        assert calls == [2] * chains
        assert len(started) == chains


def test_sample_slowed_worker_gives_serial_bytes(monkeypatch):
    # this thread sleeps at the first step of its first block, as when
    # another tenant holds its core, so the other worker takes the rest
    # of the queue; which worker runs a block moves no bit
    trainer = headline_trainer((16, 16), K=8)
    cond = bl.conditioning(trainer, 7, 2, 3)
    want = sample_with_workers(monkeypatch, 1, trainer, cond, 10000, 6)
    step, on_main = df.reverse_step, []

    def slowed(sched, net, x_i, i, z, out=None):
        if i == sched.K:
            main = threading.current_thread() is threading.main_thread()
            if main and True not in on_main:
                time.sleep(0.2)
            on_main.append(main)
        return step(sched, net, x_i, i, z, out=out)

    monkeypatch.setattr(df, "reverse_step", slowed)
    got = sample_with_workers(monkeypatch, 2, trainer, cond, 10000, 6,
                              trainer.chain_work)
    assert got == want
    assert len(on_main) == 20 and on_main.count(False) > 10


# prints diffusion.WORKERS on two of the CPUs the test may use
WORKERS_SCRIPT = """
import os
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
from ssm_diffusion import diffusion
print(diffusion.WORKERS)
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs")
@pytest.mark.parametrize("env, workers", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2),
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 1),
    ({"OPENBLAS_NUM_THREADS": "4"}, 1),
    ({"GOTO_NUM_THREADS": "1"}, 2),
    ({"OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    # read as C's atoi reads them
    ({"OPENBLAS_NUM_THREADS": " 1x"}, 2),
    ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "-1"}, 1),
    ({"OPENBLAS_NUM_THREADS": ""}, 1),
], ids=["one", "unset", "two", "more-than-cpus", "goto", "omp", "precedence",
        "atoi-prefix", "malformed-ignored", "non-positive-ignored", "empty"])
def test_worker_count_rule(env, workers):
    src = os.path.dirname(os.path.dirname(ssm_diffusion.__file__))
    base = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", WORKERS_SCRIPT],
                          env=dict(base, PYTHONPATH=src, **env),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == workers


def test_reverse_step_tables_bit_exact_against_formula():
    # the schedule's sqrt(1 - alpha_bar) and sqrt(alpha) tables give the
    # bits of the square roots taken per call
    rng = np.random.default_rng(2)
    net = ap.mlp_init([2, 16, 2], seed=4)
    x, z = rng.standard_normal((64, 2)), rng.standard_normal((64, 2))
    full = df.make_schedule(32, 1e-4, 0.2)
    for sched in (full, df.respace(full, 16)):
        folded = fold_unconditional(sched, net)
        out = ap.folded_buffers(folded, len(x))
        # every step's row of a zero-width context folds the same bias
        eps_pred = ap.folded_forward(folded, 0, x, out).copy()
        for i in range(1, sched.K + 1):
            beta, ab = sched.beta[i - 1], sched.alpha_bar[i - 1]
            want = (x - (beta / np.sqrt(1.0 - ab)) * eps_pred) \
                / np.sqrt(sched.alpha[i - 1])
            if i > 1:
                want = want + sched.sigma[i - 1] * z
            got = df.reverse_step(sched, folded, x, i, z, out)
            assert got.tobytes() == want.tobytes()


def test_take_rows_refuses_a_float_index():
    table = np.arange(12.0).reshape(4, 3)
    # take alone truncates a float index where indexing refuses it
    np.testing.assert_array_equal(table.take(1.7, axis=0), table[1])
    for bad in (1.0, np.float64(2.0), np.array([0.0, 1.0])):
        with pytest.raises(IndexError):
            table[bad]
        with pytest.raises(IndexError, match="not an integer"):
            df.take_rows(table, bad)
    with pytest.raises(IndexError):
        df.take_rows(table, np.array([1, 4]))
    for index in (2, -1, np.array([3, 0, 3]), np.array([], dtype=int)):
        assert df.take_rows(table, index).tobytes() == table[index].tobytes()


# the reverse chain of 10 headline conditions at argv[1] samples, after
# two warm-up conditions; prints the minor page faults per condition
EVAL_FAULTS_SCRIPT = """
import resource
import sys
import numpy as np
from ssm_diffusion import evaluation as ev, runner
from ssm_diffusion.config import validate_config
cfg = validate_config({
    "env": {"width": 5, "height": 5, "p_move": 0.8, "horizon": 8},
    "training": {"steps": 0, "seed": 0}})
mdp, policy = runner.build_env(cfg)
trainer = runner.build_trainer(cfg, seed=999)
conds = [(s, int(policy.table[s]), n) for n in (1, 8) for s in range(0, 25, 5)]
rng = np.random.default_rng(11)
count = int(sys.argv[1])
for s, a, n in conds[:2]:
    ev.sample_condition(trainer, s, a, n, count, rng)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for s, a, n in conds:
    ev.sample_condition(trainer, s, a, n, count, rng)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(conds))
"""


def test_sample_page_faults_per_condition():
    # a fresh process, as in test_train_step_page_faults_per_step. Chains
    # of several blocks reuse the trainer's work area and take about 2.6
    # faults at 2000 samples and 2.1 at 10k (the CLI's default count), from
    # the stack of the one worker thread a chain starts. A work area
    # allocated per chain takes about 450-740 and 120, buffers allocated at
    # every block-step 29k. A chain of one block, such as a train probe's
    # 500 samples, reuses it too; one allocated per chain took 307-346
    src = os.path.dirname(os.path.dirname(ssm_diffusion.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    for count, bound in ((2000, 400), (10000, 400), (500, 50)):
        proc = subprocess.run(
            [sys.executable, "-c", EVAL_FAULTS_SCRIPT, str(count)], env=env,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < bound


def test_sample_rejects_per_row_conditioning():
    sched = df.make_schedule(4, 0.01, 0.2)
    g = m.gridworld_new(3, 3, horizon=4)
    trainer = bl.make_trainer(sched, g, hidden_sizes=(8,), seed=0)
    rows = bl.conditioning(trainer, np.array([0, 4]), np.array([1, 2]),
                           np.array([1, 3]))
    with pytest.raises(ShapeError, match="state_enc"):
        df.sample(sched, trainer.online, rows, 2, np.random.default_rng(0))
    # conditioning that does not fit the network's input width
    with pytest.raises(ShapeError, match="inputs"):
        df.sample(sched, trainer.online, step_conditioning(sched.K), 2,
                  np.random.default_rng(0))


def test_single_step_chain_learns_point_mass():
    # K=1: the exact noise of a point mass at c is recoverable, and samples
    # should then concentrate near c
    sched = df.make_schedule(1, 0.5, 0.5)
    c = np.array([0.7, -0.3])
    rng = np.random.default_rng(0)
    net = ap.mlp_init([2 + 8, 32, 2], seed=1)
    state = ap.init_opt_state(net, lr=1e-2)
    cond = step_conditioning(sched.K)
    for _ in range(2000):
        eps = rng.standard_normal((1, 2))
        x1 = df.forward_noise(sched, c[None, :], 1, eps)
        out, activations = ap.mlp_forward(net, df.net_input(x1, cond, 1))
        grads = ap.mlp_backward(net, activations, 2.0 * (out - eps))
        net, state = ap.opt_step(net, grads, state)
    samples = df.sample(sched, net, cond, 500, np.random.default_rng(9))
    np.testing.assert_allclose(samples.mean(axis=0), c, atol=0.15)


def test_sinusoidal_embedding_shape_and_range():
    for dim in (4, 8, 9):
        emb = df.sinusoidal_embedding(3, dim)
        assert emb.shape == (dim,)
        assert np.all(np.abs(emb) <= 1.0)
    assert not np.array_equal(df.sinusoidal_embedding(1, 8),
                              df.sinusoidal_embedding(2, 8))
    rows = df.sinusoidal_embedding(np.array([3, 1, 3]), 9)
    assert rows.shape == (3, 9)
    for row, i in zip(rows, (3, 1, 3)):
        np.testing.assert_array_equal(row, df.sinusoidal_embedding(i, 9))


def test_net_input_concatenation():
    # conditioning shared by every row
    cond = step_conditioning(3, 4, state_enc=np.array([0.5]),
                             action_enc=np.array([1.0, 0.0]),
                             horizon_enc=np.array([0.25]))
    batch = df.net_input(np.array([[9.0], [8.0]]), cond, 2)
    assert batch.shape == (2, 1 + 1 + 2 + 4 + 1)
    v = batch[0]
    assert v[0] == 9.0 and v[1] == 0.5 and v[-1] == 0.25
    np.testing.assert_array_equal(v[4:8], df.sinusoidal_embedding(2, 4))
    np.testing.assert_array_equal(batch[1, 1:], v[1:])
    # per-row conditioning and steps
    rows = step_conditioning(3, 4, state_enc=np.array([[0.5], [0.7]]),
                             action_enc=np.array([[1.0, 0.0], [0.0, 1.0]]),
                             horizon_enc=np.array([[0.25], [0.5]]))
    batch = df.net_input(np.array([[9.0], [8.0]]), rows, np.array([2, 3]))
    np.testing.assert_array_equal(batch[0], v)
    assert batch[1, 1] == 0.7 and batch[1, -1] == 0.5
    np.testing.assert_array_equal(batch[1, 4:8], df.sinusoidal_embedding(3, 4))


@pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per-row"])
def test_net_input_into_out_equals_new_array(per_row):
    rng = np.random.default_rng(4)
    lead = (5,) if per_row else ()
    cond = df.Conditioning(
        state_enc=rng.standard_normal(lead + (2,)),
        action_enc=rng.standard_normal(lead + (4,)),
        horizon_enc=rng.standard_normal(lead + (3,)),
        step_table=df.sinusoidal_embedding(np.arange(1, 9), 6))
    x = rng.standard_normal((5, 2))
    i = rng.integers(1, 9, size=5) if per_row else 7
    buf = np.full((5, 2 + 2 + 4 + 6 + 3), np.nan)
    got = df.net_input(x, cond, i, out=buf)
    assert got is buf
    assert buf.tobytes() == df.net_input(x, cond, i).tobytes()


def test_net_input_rejects_misshapen_x_and_out():
    cond = step_conditioning(1, 4, state_enc=np.array([0.5]))
    with pytest.raises(ShapeError, match="out shape"):
        df.net_input(np.zeros((3, 2)), cond, 1, out=np.empty((3, 8)))
    with pytest.raises(ShapeError, match="x_i shape"):
        df.net_input(np.zeros(2), cond, 1)
