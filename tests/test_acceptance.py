"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The end-to-end criteria (6, 7) share one headline training run, which
`conftest.headline_training` trains with `cli train` in a child process
while the other tests run; they run last, and read its checkpoint. Expect
the full module to take several minutes.
"""

import json

import numpy as np
import pytest

from ssm_diffusion import approximator as ap
from ssm_diffusion import bellman_loss as bl
from ssm_diffusion import cli
from ssm_diffusion import diffusion as df
from ssm_diffusion import evaluation as ev
from ssm_diffusion import mdp as m
from ssm_diffusion import oracle as orc
from ssm_diffusion.checkpoint import load_checkpoint
from ssm_diffusion.config import validate_config
from ssm_diffusion.replay import ReplayBuffer
from ssm_diffusion.runner import build_env, build_trainer, eval_set, \
    restore_trainer, run_eval

from conftest import HEADLINE_RAW, acceptance_lines
from test_bellman_loss import draws, mixed_batch


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    acceptance_lines.append(line)
    assert ok, f"criterion {num} ({name}): {detail}"


# -- 1: gradient correctness ------------------------------------------------

def test_criterion_1_gradient_correctness():
    g = m.gridworld_new(4, 4, p_move=0.8, horizon=4)
    pol = m.policy_toward_goal(g, (3, 3))
    sched = df.make_schedule(8, 0.01, 0.2)
    trainer = bl.make_trainer(sched, g, hidden_sizes=(8, 8), seed=2)
    buf = ReplayBuffer(g, pol, 50)
    rng = np.random.default_rng(0)
    for _ in range(10):
        buf.push_trajectory(m.rollout(g, pol, rng))
    # the loss training minimizes, on one batch that mixes both branches
    batch = mixed_batch(buf, rng, size=16)
    i, eps = draws(trainer, len(batch), rng)
    n_l1 = sum(t.is_l1 for t in batch)
    worst = ap.grad_check(trainer.online,
                          lambda: bl.td_loss(trainer, batch, i, eps), h=1e-5)
    report(1, "gradient correctness", worst < 1e-4,
           f"td_loss max rel err {worst:.2e} on a batch of {len(batch)} "
           f"({n_l1} L1, {len(batch) - n_l1} L2 rows), threshold 1e-4")


# -- 2: forward-process marginals -------------------------------------------

def test_criterion_2_forward_marginals():
    sched = df.make_schedule(32, 1e-4, 0.2)
    rng = np.random.default_rng(1)
    # components well away from zero so that 1% relative on the sample mean
    # is several standard errors at 1e5 draws
    x0 = np.array([8.0, -6.0])
    worst = 0.0
    for i in (1, 16, 32):
        eps = rng.standard_normal((100_000, 2))
        xs = df.forward_noise(sched, np.broadcast_to(x0, eps.shape), i, eps)
        ab = sched.alpha_bar[i - 1]
        mean_err = np.max(np.abs(xs.mean(axis=0) - np.sqrt(ab) * x0)
                          / np.abs(np.sqrt(ab) * x0))
        var_err = np.max(np.abs(xs.var(axis=0) - (1 - ab)) / (1 - ab))
        worst = max(worst, float(mean_err), float(var_err))
    report(2, "forward-process marginals", worst < 0.01,
           f"max rel deviation {worst:.4f} at 1e5 draws, threshold 0.01")


# -- 3: unconditional DDPM sanity -------------------------------------------

@pytest.mark.slow
def test_criterion_3_unconditional_mixture():
    # a fine schedule: components of std 0.1 need small per-step noise for
    # the reverse chain to reproduce their width
    sched = df.make_schedule(128, 1e-4, 0.05)
    rng = np.random.default_rng(3)
    net = ap.mlp_init([1 + 8, 64, 64, 1], seed=4)
    opt = ap.init_opt_state(net, lr=1e-3)
    # the context of an unconditional model is its step embedding alone
    step_rows = df.sinusoidal_embedding(np.arange(1, sched.K + 1), 8)

    def draw_data(count):
        comp = rng.integers(2, size=(count, 1))
        return np.where(comp == 0, -1.0, 1.0) + 0.1 * rng.standard_normal(
            (count, 1))

    batch = 128
    for step in range(20_000):
        if step == 12_000:
            opt.lr = 2e-4
        x0 = draw_data(batch)
        eps = rng.standard_normal((batch, 1))
        # per-row diffusion steps so every index trains despite the large K
        ivals = rng.integers(1, sched.K + 1, size=batch)
        inputs = df.net_input(df.forward_noise(sched, x0, ivals, eps),
                              step_rows.take(ivals - 1, axis=0))
        out, activations = ap.mlp_forward(net, inputs)
        grads = ap.mlp_backward(net, activations, (2.0 / batch) * (out - eps))
        net, opt = ap.opt_step(net, grads, opt)

    samples = df.sample(sched, net, step_rows, 50_000,
                        np.random.default_rng(5))[:, 0]
    edges = np.linspace(-1.5, 1.5, 102)
    hist, _ = np.histogram(np.clip(samples, -1.4999, 1.4999), bins=edges)
    emp = hist / hist.sum()

    from math import erf
    def mix_cdf(x):
        return 0.5 * (0.5 * (1 + erf((x + 1) / (0.1 * np.sqrt(2))))
                      + 0.5 * (1 + erf((x - 1) / (0.1 * np.sqrt(2)))))
    true = np.array([mix_cdf(edges[k + 1]) - mix_cdf(edges[k])
                     for k in range(101)])
    true = true / true.sum()
    tv = 0.5 * np.abs(emp - true).sum()
    report(3, "unconditional DDPM mixture", tv < 0.10,
           f"TV {tv:.4f} over 101 bins after 20k steps, threshold 0.10")


# -- 4: branch statistics ----------------------------------------------------

def test_criterion_4_branch_statistics():
    g = m.gridworld_new(8, 1, p_move=1.0, horizon=4)
    pol = m.policy_fixed_action(g, 3)
    buf = ReplayBuffer(g, pol, 20)
    rng = np.random.default_rng(6)
    for _ in range(10):
        buf.push_trajectory(m.rollout(g, pol, rng, start=0))
    hits = total = 0
    while total < 100_000:
        tup = buf.sample_tuple(rng)
        if tup.n == 4:
            total += 1
            hits += tup.is_l1
    freq = hits / total
    se = np.sqrt(0.25 * 0.75 / total)
    report(4, "1/n branch statistics", abs(freq - 0.25) < 3 * se,
           f"L1 fraction {freq:.4f} vs 0.25, bound 3se={3 * se:.4f}")


# -- 5: oracle cross-validation ----------------------------------------------

def test_criterion_5_oracle_cross_validation():
    g5 = m.gridworld_new(5, 5, p_move=0.8, horizon=8)
    pol5 = m.policy_toward_goal(g5, (4, 4))
    dp = orc.exact_ssm(g5, pol5, 8)
    mp = orc.ssm_matrix_power(g5, pol5, 8)
    dp_err = float(np.max(np.abs(dp.d - mp.d)))

    g4 = m.gridworld_new(4, 4, p_move=0.8, horizon=8)
    pol4 = m.policy_toward_goal(g4, (3, 3))
    exact = orc.exact_ssm(g4, pol4, 8)
    worst_tv = 0.0
    rng = np.random.default_rng(7)
    for s, n in ((0, 4), (5, 8)):
        a = int(pol4.table[s])
        pmf = orc.mc_ssm(g4, pol4, s, a, n, 100_000, rng)
        worst_tv = max(worst_tv, ev.tv_distance(pmf, exact.d[s, a, n - 1]))
    ok = dp_err < 1e-9 and worst_tv < 0.05
    report(5, "oracle cross-validation", ok,
           f"DP vs matrix-power max err {dp_err:.2e} (<1e-9), "
           f"MC worst TV {worst_tv:.4f} (<0.05)")


# -- 6 & 7: end-to-end learning on the headline configuration ----------------

@pytest.fixture(scope="session")
def headline_run(headline_training):
    proc, train_dir, stderr = headline_training
    # the bound stops only a hung child: the run takes a minute or two
    if proc.wait(timeout=1800) != 0:
        pytest.fail(f"headline training exited {proc.returncode}:\n"
                    + stderr.read_text())
    cfg = validate_config(json.loads(json.dumps(HEADLINE_RAW)))
    trainer = restore_trainer(
        cfg, load_checkpoint(str(train_dir / "checkpoint.bin")))
    mdp_, policy = build_env(cfg)

    untrained = build_trainer(cfg, seed=999)
    table = orc.exact_ssm(mdp_, policy, cfg.env["horizon"])
    baseline = ev.eval_model(untrained, mdp_, table,
                             eval_set(cfg, mdp_, policy), 2000,
                             np.random.default_rng(12))
    report_trained = run_eval(cfg, trainer, train_dir.parent / "eval")
    return report_trained, baseline, table, mdp_


@pytest.mark.slow
def test_criterion_6_end_to_end_ssm(headline_run):
    trained, baseline, _, _ = headline_run
    tv1 = float(np.mean([r["tv"] for r in trained.rows if r["n"] == 1]))
    improvement = baseline.mean_tv / max(trained.mean_tv, 1e-9)
    ok = (trained.mean_tv < 0.20 and tv1 < 0.15 and improvement >= 2.0)
    report(6, "end-to-end SSM learning", ok,
           f"mean TV {trained.mean_tv:.4f} (<0.20), n=1 TV {tv1:.4f} "
           f"(<0.15), untrained baseline {baseline.mean_tv:.4f} "
           f"({improvement:.1f}x improvement, need >=2x)")


@pytest.mark.slow
def test_criterion_7_q_estimation(headline_run):
    trained, _, _, _ = headline_run
    report(7, "Q-estimation", trained.mean_q_err < 0.10,
           f"mean |Q_hat - Q| {trained.mean_q_err:.4f} over the eval set "
           "with goal-indicator reward, threshold 0.10")


# -- 8: determinism & persistence --------------------------------------------

def test_criterion_8_determinism_and_persistence(tmp_path):
    raw = {"env": {"width": 2, "height": 2, "horizon": 3},
           "diffusion": {"K": 4},
           "model": {"hidden_sizes": [8]},
           "training": {"steps": 30, "seed": 0, "batch_size": 8,
                        "log_every": 5, "initial_trajectories": 20,
                        "buffer_capacity": 50, "collect_every": 10}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    outs = [tmp_path / d for d in ("r1", "r2", "half", "resumed")]
    for out in outs[:2]:
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
    identical = (outs[0] / "loss.csv").read_bytes() == \
        (outs[1] / "loss.csv").read_bytes()

    half_raw = json.loads(json.dumps(raw))
    half_raw["training"]["steps"] = 15
    half_path = tmp_path / "half.json"
    half_path.write_text(json.dumps(half_raw))
    assert cli.main(["train", "--config", str(half_path),
                     "--out", str(outs[2])]) == 0
    assert cli.main(["train", "--config", str(cfg_path),
                     "--out", str(outs[3]),
                     "--checkpoint", str(outs[2] / "checkpoint.bin"),
                     "--override-digest"]) == 0
    full_rows = (outs[0] / "loss.csv").read_text().splitlines()[2:]
    half_rows = (outs[2] / "loss.csv").read_text().splitlines()[2:]
    resumed_rows = (outs[3] / "loss.csv").read_text().splitlines()[2:]
    resume_ok = (half_rows + resumed_rows == full_rows) and \
        (outs[3] / "checkpoint.bin").read_bytes() == \
        (outs[0] / "checkpoint.bin").read_bytes()
    report(8, "determinism & persistence", identical and resume_ok,
           f"identical loss.csv: {identical}, resume equivalence: {resume_ok}")
