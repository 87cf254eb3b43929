"""DDPM machinery: linear noise schedule, forward noising and conditional
reverse-process sampling.

Diffusion steps are 1-indexed (i in [1, K]); internal arrays are 0-based.
The denoiser is an MLP that takes [x_i | context] and predicts the noise
that was added, where a context row is [state | action | step embedding |
horizon], gathered by bellman_loss.conditioning. A chain is given one
context row for each of its steps, shared by every sample, so once per
chain it folds the network into one read-only copy
(approximator.fold_biases), the only network reverse_step takes: each
step's context goes into that step's first-layer bias, and every hidden
layer's bias into its weights, read on a ones column that the layer before
writes. Each hidden layer is then one matmul and its activation, with no
bias pass, and only x_i goes through the network. The chain runs blocks of
at most BLOCK_ROWS samples through all its steps, so every layer's output
stays in cache between its matmul and its activation, and WORKERS threads,
one for each CPU that BLAS's own threads leave free, share the blocks and
the one fold, each with its own block buffers. A chain may run on a
subsequence of the K steps (respace), with the same update.
"""

import contextvars
import os
import re
import threading
from dataclasses import dataclass, field

import numpy as np

# unused mlp_forward: perfbench's wrapper test reads it here (ROADMAP item 2)
from .approximator import (fold_biases, folded_buffers, folded_forward,
                           mlp_forward)  # noqa: F401
from .errors import ConfigurationError, NumericError, ShapeError

# rows per block of the reverse chain: a 512 x 129 float64 layer output
# (516 KB) stays in a 2 MB L2 cache, a 2000-row one streams past it
BLOCK_ROWS = 512


def worker_count(environ):
    """Threads to run a chain's row blocks on: the usable CPUs divided by
    the BLAS thread count, at least one. The count is read as OpenBLAS
    reads it: the first of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS whose value C's atoi reads as a positive number, and
    one thread per CPU if there is none."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OMP_NUM_THREADS"):
        digits = re.match(r"\s*\+?(\d+)", environ.get(name, ""))
        if digits and int(digits.group(1)) > 0:
            return max(1, cpus // int(digits.group(1)))
    return 1


# one BLAS thread per CPU, the default, keeps the chain on one thread
WORKERS = worker_count(os.environ)


@dataclass
class NoiseSchedule:
    K: int                  # its number of steps
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    # reverse-step noise scale: sqrt(beta), or the posterior one (respace)
    sigma: np.ndarray
    # the diffusion step each step stands for: 1..K, or a respaced
    # schedule's subsequence, on which the network stays conditioned
    tau: np.ndarray
    # sqrt(alpha_bar), sqrt(1 - alpha_bar) and sqrt(alpha), which
    # forward_noise and reverse_step read
    sqrt_alpha_bar: np.ndarray = field(init=False, repr=False)
    sqrt_one_minus_alpha_bar: np.ndarray = field(init=False, repr=False)
    sqrt_alpha: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.sqrt_alpha_bar = np.sqrt(self.alpha_bar)
        self.sqrt_one_minus_alpha_bar = np.sqrt(1.0 - self.alpha_bar)
        self.sqrt_alpha = np.sqrt(self.alpha)


def make_schedule(K, beta_min, beta_max):
    if K < 1:
        raise ConfigurationError(f"K must be >= 1, got {K}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ConfigurationError(
            f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})")
    beta = np.linspace(beta_min, beta_max, K)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    return NoiseSchedule(K=K, beta=beta, alpha=alpha, alpha_bar=alpha_bar,
                         sigma=np.sqrt(beta), tau=np.arange(1, K + 1))


def _posterior_sigma(alpha_bar, beta):
    """sqrt of the true posterior variance (1-abar_{i-1})/(1-abar_i) b_i,
    with abar_0 = 1, so sigma_1 = 0 (no noise is added at the final
    reverse step anyway)."""
    alpha_bar_prev = np.concatenate([[1.0], alpha_bar[:-1]])
    return np.sqrt((1.0 - alpha_bar_prev) / (1.0 - alpha_bar) * beta)


def respace(sched, steps):
    """The schedule of a reverse chain over `steps` of sched's K steps,
    tau = round(linspace(1, K, steps)), or [K] for one step. Its step j
    stands for diffusion step tau_j and goes to tau_{j-1} (to x0 at j = 1):
    abar_j = abar(tau_j), beta_j = 1 - abar_j / abar_{j-1} with abar_0 = 1,
    and always the posterior variance, which makes reverse_step's update
    DDIM at eta = 1 (Song et al., 2020). At steps = K it is sched itself,
    so the full chain keeps sched's variance bit for bit."""
    K = sched.K
    if not 1 <= steps <= K:
        raise ConfigurationError(f"steps must be in [1, {K}], got {steps}")
    if steps == K:
        return sched
    tau = np.rint(np.linspace(1, K, steps)).astype(int) if steps > 1 \
        else np.array([K])
    alpha_bar = sched.alpha_bar[tau - 1]
    alpha = alpha_bar / np.concatenate([[1.0], alpha_bar[:-1]])
    beta = 1.0 - alpha
    return NoiseSchedule(K=steps, beta=beta, alpha=alpha, alpha_bar=alpha_bar,
                         sigma=_posterior_sigma(alpha_bar, beta), tau=tau)


def _check_step(sched, i):
    steps = np.asarray(i)
    if steps.size and (steps.min() < 1 or steps.max() > sched.K):
        raise IndexError(f"diffusion step {i} out of range [1, {sched.K}]")


def forward_noise(sched, x0, i, epsilon):
    """x_i = sqrt(abar_i) x0 + sqrt(1 - abar_i) epsilon. Works on a vector
    or a batch of row vectors (epsilon must match x0's shape); i is one
    step, or a vector holding each row's step."""
    _check_step(sched, i)
    x0 = np.asarray(x0, dtype=float)
    epsilon = np.asarray(epsilon, dtype=float)
    if x0.shape != epsilon.shape:
        raise ShapeError(f"x0 shape {x0.shape} != epsilon shape {epsilon.shape}")
    row = np.asarray(i) - 1
    return (sched.sqrt_alpha_bar[row][..., None] * x0
            + sched.sqrt_one_minus_alpha_bar[row][..., None] * epsilon)


def loss_weight(sched, i):
    """The unit weight of every step's squared noise-prediction error (one
    step or a vector of steps). The loss does not call it; it stays only
    because perfbench/spans.TARGETS wraps it, and goes with ROADMAP item 2."""
    _check_step(sched, i)
    return np.ones(np.shape(i))


def sinusoidal_embedding(i, dim):
    """Standard sin/cos positional embedding of the (1-based) step index;
    a vector of steps gives one row per step."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = np.multiply.outer(i, freqs)
    emb = np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)
    if emb.shape[-1] < dim:
        pad = np.zeros(emb.shape[:-1] + (dim - emb.shape[-1],))
        emb = np.concatenate([emb, pad], axis=-1)
    return emb


def net_input(x_i, context, out=None):
    """The denoiser input [x_i | context] of a (batch, dim) matrix of noised
    points, whose context (bellman_loss.conditioning) is one row per point
    or one row shared by every point. out, if given, is the (batch, width)
    array that receives the input in place of a new one."""
    x_i = np.asarray(x_i, dtype=float)
    if x_i.ndim != 2:
        raise ShapeError(f"x_i shape {x_i.shape} is not (batch, dim)")
    dim = x_i.shape[1]
    shape = (x_i.shape[0], dim + np.shape(context)[-1])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ShapeError(f"out shape {out.shape} is not the input's {shape}")
    out[:, :dim] = x_i
    out[:, dim:] = context
    return out


def reverse_step(sched, folded, x_i, i, z, out):
    """One reverse-process step x_i -> x_{i-1} on a (count, dim) matrix with
    the standard posterior-mean update over sched's step i (of a respaced
    schedule too); no noise is added at i=1, where z is not read and may be
    None. folded is a FoldedMlp folded with the context of sched's steps,
    whose row i - 1 it reads, and out folded_buffers' arrays cut to the
    count's leading rows, which receive the network's layer outputs."""
    _check_step(sched, i)
    x_i = np.asarray(x_i, dtype=float)
    if i > 1:
        z = np.asarray(z, dtype=float)
        if z.shape != x_i.shape:
            raise ShapeError(f"z shape {z.shape} != x shape {x_i.shape}")
    eps_pred = folded_forward(folded, i - 1, x_i, out)
    mean = (x_i - (sched.beta[i - 1] / sched.sqrt_one_minus_alpha_bar[i - 1])
            * eps_pred) / sched.sqrt_alpha[i - 1]
    if i == 1:
        return mean
    return mean + sched.sigma[i - 1] * z


@dataclass
class ChainWork:
    """A reverse chain's large arrays: each worker's buffers for a block of
    BLOCK_ROWS rows (folded_buffers), and every step's noise, 1 MB at 2000
    headline samples and 5 MB at 10k. It holds no network: the workers
    share the chain's one fold. A chain takes one set of buffers per worker
    and a shorter block takes their leading rows, so a caller that passes
    the same one to every sample call, as a trainer does, lets its chains
    allocate none of them."""
    key: tuple = ()     # the layer sizes and dim its buffers fit
    out: list = field(default_factory=list)
    noise: np.ndarray = field(default_factory=lambda: np.empty(0))


def _fit_work(work, net, folded, workers, noise_size):
    """Build work's arrays again where they do not fit this fold; the
    buffer sets and the noise array only grow."""
    key = (tuple(net.layer_sizes), folded.dim)
    if work.key != key:
        work.key, work.out = key, []
    while len(work.out) < workers:
        work.out.append(folded_buffers(folded, BLOCK_ROWS))
    if work.noise.size < noise_size:
        work.noise = np.empty(noise_size)


def _run_blocks(sched, folded, out, x, z, blocks):
    """Run blocks of x through steps K..1 on `folded`, in place on x and on
    the worker's buffers `out`, taking each block's offset from `blocks`, a
    range iterator that every worker shares: its next is one C call, so
    under the interpreter lock no two take one block. z[K - i] is step i's
    noise; step 1 has none. Returns the earliest (largest) step at which
    one of the blocks went non-finite, or 0; later blocks stop above it."""
    failed = 0
    for r in blocks:
        rows = slice(r, r + BLOCK_ROWS)
        x_i = x[rows]
        block_out = [o[:len(x_i)] for o in out]
        for i in range(sched.K, failed, -1):
            x_i = reverse_step(sched, folded, x_i, i,
                               z[sched.K - i, rows] if i > 1 else None,
                               block_out)
            if not np.isfinite(x_i).all():
                failed = i
                break
        x[rows] = x_i
    return failed


def _run_all(fn, arg_lists):
    """fn(*args) for each args of arg_lists: the first on this thread, each
    other on a thread of its own that runs in a copy of this thread's
    context, so NumPy's errstate holds there too. Returns the results in
    order; an exception raised in any call is raised here once all have
    ended."""
    results = [None] * len(arg_lists)
    errors = [None] * len(arg_lists)

    def run(k):
        try:
            results[k] = fn(*arg_lists[k])
        except BaseException as exc:
            errors[k] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(run, k))
               for k in range(1, len(arg_lists))]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def sample(sched, net, context, count, rng, work=None):
    """Draw `count` x0 vectors by running the reverse chain from unit
    Gaussian noise over sched's steps: a make_schedule schedule, or a
    respace of one, whose step j conditions the network on row j - 1 of
    the (sched.K, width) context, the row of diffusion step
    sched.tau[j - 1] (bellman_loss.conditioning). Deterministic given the
    rng state, and bit for bit the same whatever the worker count.

    The context is shared by every sample, so the network is folded once
    per chain, with every step's row, into one read-only copy that takes
    only x (see approximator.fold_biases). This thread draws x, then every
    step's noise, (sched.K - 1) x count x dim floats, in one call. Up to
    WORKERS workers, each with its own block buffers, read that one fold,
    take blocks of at most BLOCK_ROWS rows from a queue they share and run
    each through every step: this thread is the first and a new thread
    each other one, and they meet once, when the queue is empty.

    work, if given, is a ChainWork that the chain reuses in place of new
    arrays."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    if np.ndim(context) != 2 or len(context) != sched.K:
        raise ShapeError(f"context shape {np.shape(context)} is not one row "
                         f"for each of the chain's {sched.K} steps")
    dim = net.layer_sizes[-1]
    folded = fold_biases(net, dim, context)
    starts = range(0, count, BLOCK_ROWS)
    workers = min(WORKERS, len(starts))
    work = ChainWork() if work is None else work
    _fit_work(work, net, folded, workers, (sched.K - 1) * count * dim)
    x = rng.standard_normal((count, dim))
    z = work.noise[:(sched.K - 1) * x.size].reshape(sched.K - 1, count, dim)
    rng.standard_normal(out=z)
    blocks = iter(starts)
    failed = max(_run_all(_run_blocks, [
        (sched, folded, out, x, z, blocks) for out in work.out[:workers]]))
    if failed:
        raise NumericError(f"non-finite sample values at reverse step "
                           f"{sched.tau[failed - 1]}")
    return x
