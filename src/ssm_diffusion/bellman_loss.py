"""The TD-diffusion loss: a denoising term on the immediate successor and a
bootstrap term regressing the online denoiser onto a frozen target network
conditioned one horizon step shorter. Replay supplies the immediate-successor
branch with probability 1/n, so the expected loss realizes
(1/n) L1 + ((n-1)/n) L2.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import approximator as ap
from . import diffusion as df
from .errors import NumericError
from .mdp import TabularMdp, encode_action, encode_state


@dataclass
class Trainer:
    online: ap.MlpParams
    target: ap.MlpParams
    sched: df.NoiseSchedule
    opt: ap.OptState                # its step_count is the trainer's
    mdp: TabularMdp                 # its horizon is the largest n
    sync_period: int = 500          # steps between hard target copies; 0 is off
    # the encoding of each state, action, horizon n (row n-1, one-hot) and
    # diffusion step i (row i-1), built once by make_trainer with the
    # per-call encoders; the step table's width is the step embedding's
    state_table: np.ndarray = field(default=None, repr=False)
    action_table: np.ndarray = field(default=None, repr=False)
    horizon_table: np.ndarray = field(default=None, repr=False)
    step_table: np.ndarray = field(default=None, repr=False)
    # buffers td_loss and train_step reuse; see _work_area
    work: "WorkArea" = field(default=None, repr=False)
    # the schedule evaluation.sample_condition's reverse chains run over
    sample_sched: df.NoiseSchedule = field(default=None, repr=False)
    # buffers the reverse chains of evaluation.sample_condition reuse
    chain_work: df.ChainWork = field(default_factory=df.ChainWork, repr=False)


@dataclass
class WorkArea:
    """One train step's large arrays, kept by the trainer so that no step
    allocates them: the online and the target network's inputs, the online
    forward's layer outputs, one set of layer outputs that the target
    forward writes and the backward then reuses for its hidden-layer
    gradients, the gradient vector and Adam's temporary."""
    online_in: np.ndarray
    target_in: np.ndarray
    online_out: list
    shared_out: list
    grads: ap.MlpParams
    scratch: np.ndarray


def _work_area(trainer, B):
    """The trainer's WorkArea for batches of B rows, built on first use and
    again when B changes."""
    work = trainer.work
    if work is None or len(work.online_out[0]) != B:
        online = trainer.online
        widths = online.layer_sizes[1:]
        # Adam runs after the backward, when shared_out is dead, so its
        # temporary takes the same memory
        shared = np.empty(max(B * sum(widths), online.theta.size))
        ends = B * np.cumsum([0] + widths)
        work = trainer.work = WorkArea(
            online_in=np.empty((B, online.layer_sizes[0])),
            target_in=np.empty((B, online.layer_sizes[0])),
            online_out=[np.empty((B, w)) for w in widths],
            shared_out=[shared[a:b].reshape(B, -1)
                        for a, b in zip(ends[:-1], ends[1:])],
            grads=ap.MlpParams(list(online.layer_sizes),
                               np.empty_like(online.theta)),
            scratch=shared[:online.theta.size])
    return work


def make_trainer(sched, mdp, hidden_sizes=(128, 128), step_dim=8, lr=1e-3,
                 sync_period=500, seed=0, sample_sched=None):
    """A trainer whose samplers run over sample_sched (a respace of sched),
    or over sched itself if it is None."""
    # input: x | state | action | step embedding | one-hot horizon; x and
    # the state are 2-D cell centers
    sizes = [2 + 2 + mdp.n_actions + step_dim + mdp.horizon]
    sizes += list(hidden_sizes) + [2]
    online = ap.mlp_init(sizes, seed=seed)
    return Trainer(online=online, target=ap.copy_params(online), sched=sched,
                   opt=ap.init_opt_state(online, lr=lr),
                   mdp=mdp, sync_period=sync_period,
                   sample_sched=sched if sample_sched is None else sample_sched,
                   state_table=encode_state(mdp, np.arange(mdp.n_states)),
                   action_table=encode_action(mdp, np.arange(mdp.n_actions)),
                   horizon_table=np.eye(mdp.horizon),
                   step_table=df.sinusoidal_embedding(
                       np.arange(1, sched.K + 1), step_dim))


def _rows(table, index, name):
    """table[index] for an integer index or vector of them, each in range."""
    index = np.asarray(index)
    if index.size and (index.min() < 0 or index.max() >= len(table)):
        raise IndexError(f"{name} {index} out of range")
    return df.take_rows(table, index)


def conditioning(trainer, s, a, n):
    """Denoiser context for state s, action a and horizon n, each one index
    or a vector of them (one row each)."""
    n, n_max = np.asarray(n), trainer.mdp.horizon
    if n.size and (n.min() < 1 or n.max() > n_max):
        raise ValueError(f"horizon {n} out of range [1, {n_max}]")
    return df.Conditioning(state_enc=_rows(trainer.state_table, s, "state"),
                           action_enc=_rows(trainer.action_table, a, "action"),
                           horizon_enc=df.take_rows(trainer.horizon_table,
                                                    n - 1),
                           step_table=trainer.step_table)


def td_loss(trainer, batch, i, eps):
    """Mean over the batch of |f_online(x_i | s, a, n) - y|^2 and its
    gradient with respect to the online parameters.

    Row r noises x0 with its diffusion step i[r] and noise eps[r]. On an
    immediate-successor row (L1) x0 = s' and y = eps; on any other row (L2)
    x0 = x and y is the frozen target network at (s', pi(s'), n-1), which no
    gradient reaches.

    The gradient is written into the trainer's WorkArea, so it is valid
    only until the next call on that trainer."""
    if not batch:
        raise ValueError("batch must be non-empty")
    B = len(batch)
    work = _work_area(trainer, B)
    i = np.asarray(i)
    s, a, s_next, a_next, x, n, is_l1 = np.fromiter(
        itertools.chain.from_iterable(batch), dtype=np.int64,
        count=B * len(batch[0])).reshape(B, -1).T
    is_l1 = is_l1.astype(bool)
    x0 = _rows(trainer.state_table, np.where(is_l1, s_next, x), "state")
    x_i = df.forward_noise(trainer.sched, x0, i, eps)
    inputs = df.net_input(x_i, conditioning(trainer, s, a, n), i,
                          out=work.online_in)

    targets = np.array(eps, dtype=float)
    l2 = np.flatnonzero(~is_l1)
    if l2.size:
        tgt_cond = conditioning(trainer, s_next[l2], a_next[l2], n[l2] - 1)
        tgt_in = df.net_input(x_i.take(l2, axis=0), tgt_cond, i[l2],
                              out=work.target_in[:l2.size])
        tgt_out, _ = ap.mlp_forward(
            trainer.target, tgt_in,
            out=[o[:l2.size] for o in work.shared_out])
        targets[l2] = tgt_out

    out, activations = ap.mlp_forward(trainer.online, inputs,
                                      out=work.online_out)
    # the residual, then the loss's gradient with respect to the output,
    # each written over the last
    resid = np.subtract(out, targets, out=targets)
    row_losses = np.sum(resid ** 2, axis=1)
    loss = float(np.mean(row_losses))
    if not np.isfinite(loss):
        bad = int(np.argmax(~np.isfinite(row_losses)))
        raise NumericError(f"non-finite loss for batch row {bad}: {batch[bad]}")
    resid *= 2.0 / B
    # the target's outputs are copied into targets, so the backward may
    # overwrite them
    grads = ap.mlp_backward(trainer.online, activations, resid,
                            out=work.grads, g_out=work.shared_out)
    return loss, grads


def sync_target(trainer):
    """Copy the online network into the target every sync_period steps."""
    if trainer.sync_period > 0 and \
            trainer.opt.step_count % trainer.sync_period == 0:
        trainer.target = ap.copy_params(trainer.online)


def train_step(trainer, batch, rng):
    """Draw the batch's diffusion steps, then its noise (one row each), take
    one optimizer step on the batch's td_loss and sync the target. A step
    that overflows is counted and in Adam's moments, but not in the net."""
    B, dim = len(batch), trainer.online.layer_sizes[-1]
    i = rng.integers(1, trainer.sched.K + 1, size=B)
    eps = rng.standard_normal((B, dim))
    loss, grads = td_loss(trainer, batch, i, eps)
    trainer.online, trainer.opt = ap.opt_step(
        trainer.online, grads, trainer.opt, scratch=trainer.work.scratch)
    sync_target(trainer)
    l1_fraction = sum(t.is_l1 for t in batch) / len(batch)
    return {"loss": loss, "l1_fraction": l1_fraction,
            "step": trainer.opt.step_count}
