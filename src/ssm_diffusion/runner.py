"""Config-driven experiment plumbing: building environments and trainers,
the training loop with deterministic logging, checkpoint resume, and the
metrics/oracle/heatmap output files."""

import json
import os

import numpy as np

from . import bellman_loss as bl
from . import diffusion as df
from . import evaluation as ev
from . import mdp as mdp_mod
from . import oracle as orc
from .checkpoint import Checkpoint, save_checkpoint
from .config import config_digest
from .errors import ConfigurationError, FormatError, MismatchError, \
    NumericError
from .replay import ReplayBuffer


def build_env(cfg):
    env = cfg.env
    W, H = env["width"], env["height"]
    rspec = env["reward"]
    if rspec["kind"] == "zero":
        reward = np.zeros(W * H)
    elif rspec["kind"] == "goal":
        reward = mdp_mod.goal_reward(W, H, rspec["cell"])
    else:
        reward = np.asarray(rspec["values"], dtype=float)
    mdp = mdp_mod.gridworld_new(W, H, p_move=env["p_move"],
                                horizon=env["horizon"], reward=reward,
                                start=env["start"])
    pspec = env["policy"]
    if pspec["kind"] == "toward_goal":
        policy = mdp_mod.policy_toward_goal(mdp, pspec["cell"])
    elif pspec["kind"] == "fixed_action":
        policy = mdp_mod.policy_fixed_action(mdp, pspec["action"])
    else:
        policy = mdp_mod.Policy(table=np.asarray(pspec["table"], dtype=int))
    return mdp, policy


def build_trainer(cfg, seed=None):
    trn, dif = cfg.training, cfg.diffusion
    sched = df.make_schedule(dif["K"], dif["beta_min"], dif["beta_max"])
    return bl.make_trainer(
        sched, build_env(cfg)[0], hidden_sizes=cfg.model["hidden_sizes"],
        step_dim=cfg.model["step_embed_dim"], lr=trn["lr"],
        sync_period=trn["sync_period"],
        seed=trn["seed"] if seed is None else seed,
        sample_sched=df.respace(sched, eval_steps(cfg)))


def structure(cfg, trainer):
    """The fields that fix what a trained network's parameters mean. A
    checkpoint is resumed or evaluated only under a config that agrees on
    every one of them, whatever the digest says."""
    dif = cfg.diffusion
    return {"K": dif["K"], "beta_min": dif["beta_min"],
            "beta_max": dif["beta_max"],
            "layer_sizes": trainer.online.layer_sizes,
            "n_max": trainer.mdp.horizon,
            "step_dim": trainer.step_table.shape[1]}


def make_checkpoint(cfg, trainer, buf, rng):
    replay = np.array([(*t.states, *t.actions) for t in buf.trajectories],
                      dtype=np.int64)
    return Checkpoint(
        config_digest=config_digest(cfg), structure=structure(cfg, trainer),
        step_count=trainer.opt.step_count, m=trainer.opt.m, v=trainer.opt.v,
        rng_state=rng.bit_generator.state, online=trainer.online,
        target=trainer.target,
        replay=replay.reshape(len(buf), 2 * trainer.mdp.horizon + 1))


def restore_trainer(cfg, ck, override_digest=False):
    """The trainer a checkpoint saved, rebuilt under its config. The
    checkpoint gives the state, the config every setting: the optimizer
    keeps the config's learning rate and takes the checkpoint's moments.

    This is where a checkpoint is checked against its config, in order:
    the structure, then the digest unless overridden (a MismatchError
    naming each disagreement), then the replay (a one-line FormatError
    unless it holds at least one trajectory, each of the config's
    horizon, with every state and action in range)."""
    trainer = build_trainer(cfg)
    diffs = [f"{key} {ck.structure.get(key)!r} (config {value!r})"
             for key, value in structure(cfg, trainer).items()
             if ck.structure.get(key) != value]
    if diffs:
        raise MismatchError("checkpoint does not match config: "
                            + ", ".join(diffs))
    digest = config_digest(cfg)
    if ck.config_digest != digest and not override_digest:
        raise MismatchError(f"checkpoint digest {ck.config_digest[:12]} does "
                            f"not match config digest {digest[:12]} "
                            "(use --override-digest to proceed)")
    mdp = trainer.mdp
    H = mdp.horizon
    if not len(ck.replay):
        raise FormatError("replay holds no trajectories")
    if ck.replay.shape[1] != 2 * H + 1:
        raise FormatError("replay trajectories do not have the config's "
                          f"horizon {H}")
    for name, values, bound in (
            ("state", ck.replay[:, :H + 1], mdp.n_states),
            ("action", ck.replay[:, H + 1:], mdp.n_actions)):
        bad = values[(values < 0) | (values >= bound)]
        if bad.size:
            raise FormatError(f"replay {name} {bad[0]} out of range "
                              f"[0, {bound})")
    trainer.online, trainer.target = ck.online, ck.target
    trainer.opt.m, trainer.opt.v = ck.m, ck.v
    trainer.opt.step_count = ck.step_count
    return trainer


def run_training(cfg, out_dir, resume_ck=None, seed=None,
                 override_digest=False):
    """Collect rollouts, run the training loop, write loss.csv and the final
    checkpoint. Returns (trainer, mdp, policy, buffer). seed, if given,
    replaces the config's training seed; a resumed run takes none, and
    override_digest resumes it despite a digest mismatch."""
    trn = cfg.training
    digest = config_digest(cfg)
    mdp, policy = build_env(cfg)
    buf = ReplayBuffer(mdp, policy, trn["buffer_capacity"])
    if resume_ck is None:
        seed = trn["seed"] if seed is None else seed
        rng = np.random.default_rng(seed)
        trainer = build_trainer(cfg, seed=seed)
        for e in range(trn["initial_trajectories"]):
            buf.push_trajectory(mdp_mod.rollout(mdp, policy, rng, episode_id=e))
    else:
        trainer = restore_trainer(cfg, resume_ck, override_digest)
        if seed is not None:
            raise ConfigurationError("cannot override the seed of a resumed "
                                     "run: it continues its checkpoint's "
                                     "generator")
        rng = np.random.default_rng(0)
        rng.bit_generator.state = resume_ck.rng_state
        H = mdp.horizon
        for row in resume_ck.replay.tolist():
            buf.push_trajectory(mdp_mod.Trajectory(states=tuple(row[:H + 1]),
                                                   actions=tuple(row[H + 1:])))
    start_step = trainer.opt.step_count

    os.makedirs(out_dir, exist_ok=True)
    loss_rows = []
    try:
        for step_idx in range(start_step, trn["steps"]):
            if trn["collect_every"] > 0 and step_idx % trn["collect_every"] == 0:
                buf.push_trajectory(
                    mdp_mod.rollout(mdp, policy, rng, episode_id=step_idx))
            batch = [buf.sample_tuple(rng) for _ in range(trn["batch_size"])]
            stats = bl.train_step(trainer, batch, rng)
            if trn["log_every"] > 0 and stats["step"] % trn["log_every"] == 0:
                loss_rows.append((stats["step"], stats["loss"],
                                  stats["l1_fraction"]))
    except NumericError:
        # retain a partial checkpoint for post-mortem before propagating
        save_checkpoint(os.path.join(out_dir, "checkpoint.partial.bin"),
                        make_checkpoint(cfg, trainer, buf, rng))
        raise

    loss_path = os.path.join(out_dir, "loss.csv")
    with open(loss_path, "w") as fh:
        fh.write(f"# config_digest={digest}\n")
        fh.write("step,loss,l1_fraction\n")
        for s, l, f in loss_rows:
            fh.write(f"{s},{l:.17g},{f:.17g}\n")
    save_checkpoint(os.path.join(out_dir, "checkpoint.bin"),
                    make_checkpoint(cfg, trainer, buf, rng))
    manifest = {"config_digest": digest, "format_version": 1,
                "steps": trainer.opt.step_count,
                "files": ["loss.csv", "checkpoint.bin"]}
    # a resumed run draws from its checkpoint's generator, not from a seed
    if resume_ck is None:
        manifest["seed"] = seed
    else:
        manifest["resumed_from_step"] = start_step
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return trainer, mdp, policy, buf


def eval_n_values(cfg):
    if cfg.eval["eval_n"] is not None:
        return sorted(set(cfg.eval["eval_n"]))
    H = cfg.env["horizon"]
    return sorted({1, max(1, H // 2), H})


def eval_set(cfg, mdp, policy):
    """The eval conditions (s, pi(s), n): every state at each eval horizon."""
    return [(s, int(policy.table[s]), n)
            for n in eval_n_values(cfg) for s in range(mdp.n_states)]


def eval_steps(cfg):
    """The eval chain's step count: eval.steps, or ceil(K / 2) if null."""
    if cfg.eval["steps"] is not None:
        return cfg.eval["steps"]
    return (cfg.diffusion["K"] + 1) // 2


def run_eval(cfg, trainer, out_dir, seed=None):
    """Evaluate a trainer against the exact table; write metrics + heatmaps."""
    os.makedirs(out_dir, exist_ok=True)
    digest = config_digest(cfg)
    eval_seed = cfg.eval["seed"] if seed is None else seed
    mdp, policy = build_env(cfg)
    table = orc.exact_ssm(mdp, policy, cfg.env["horizon"])
    rng = np.random.default_rng(eval_seed)
    report = ev.eval_model(trainer, mdp, table, eval_set(cfg, mdp, policy),
                           cfg.eval["num_samples"], rng, seed=eval_seed,
                           config_digest=digest)
    write_metrics(report, out_dir)
    write_heatmaps(report, table, mdp, os.path.join(out_dir, "heatmaps"))
    return report


def write_metrics(report, out_dir):
    summary = {"kind": "summary", "mean_tv": report.mean_tv,
               "mean_tv_by_n": report.mean_tv_by_n,
               "max_tv": report.max_tv, "mean_q_err": report.mean_q_err,
               "max_q_err": report.max_q_err,
               "num_samples": report.num_samples, "seed": report.seed,
               "steps": report.steps, "config_digest": report.config_digest}
    with open(os.path.join(out_dir, "metrics.jsonl"), "w") as fh:
        for row in report.rows:
            rec = {k: row[k] for k in
                   ("s", "a", "n", "tv", "q_est", "q_exact", "q_abs_err",
                    "clamped_frac")}
            rec["kind"] = "condition"
            rec["config_digest"] = report.config_digest
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write(f"# config_digest={report.config_digest}\n")
        fh.write("s,a,n,tv,q_est,q_exact,q_abs_err,clamped_frac\n")
        for row in report.rows:
            fh.write(f"{row['s']},{row['a']},{row['n']},{row['tv']:.17g},"
                     f"{row['q_est']:.17g},{row['q_exact']:.17g},"
                     f"{row['q_abs_err']:.17g},{row['clamped_frac']:.17g}\n")


def write_heatmaps(report, table, mdp, heat_dir):
    """One plain-PPM image per condition: learned pmf | separator | oracle."""
    os.makedirs(heat_dir, exist_ok=True)
    W, H = mdp.width, mdp.height
    for row in report.rows:
        learned = np.asarray(row["pmf"]).reshape(H, W)
        oracle_pmf = table.d[row["s"], row["a"], row["n"] - 1].reshape(H, W)
        peak = max(learned.max(), oracle_pmf.max(), 1e-12)
        img = np.zeros((H, 2 * W + 1), dtype=int)
        img[:, :W] = np.rint(255 * learned / peak)
        img[:, W + 1:] = np.rint(255 * oracle_pmf / peak)
        path = os.path.join(heat_dir,
                            f"s{row['s']}_a{row['a']}_n{row['n']}.ppm")
        with open(path, "w") as fh:
            fh.write(f"P3\n{2 * W + 1} {H}\n255\n")
            for r in range(H):
                fh.write(" ".join(f"{v} {v} {v}" for v in img[r]) + "\n")


def write_oracle_csvs(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    digest = config_digest(cfg)
    mdp, policy = build_env(cfg)
    n_max = cfg.env["horizon"]
    table = orc.exact_ssm(mdp, policy, n_max)
    q = orc.exact_q(table, mdp)
    with open(os.path.join(out_dir, "ssm_oracle.csv"), "w") as fh:
        fh.write(f"# config_digest={digest}\n")
        fh.write("s,a,n,x,probability\n")
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions):
                for n in range(1, n_max + 1):
                    for x in range(mdp.n_states):
                        fh.write(f"{s},{a},{n},{x},{table.d[s, a, n - 1, x]:.17g}\n")
    with open(os.path.join(out_dir, "q_oracle.csv"), "w") as fh:
        fh.write(f"# config_digest={digest}\n")
        fh.write("s,a,n,q\n")
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions):
                for n in range(1, n_max + 1):
                    fh.write(f"{s},{a},{n},{q[s, a, n - 1]:.17g}\n")
    return table, q
