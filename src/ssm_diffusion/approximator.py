"""Minimal MLP with explicit forward/backward passes and SGD/Adam optimizers.

Everything is float64 numpy. Forward takes a (batch, dim) matrix, one row
per input; backward sums the gradients over the rows.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError

ACTIVATIONS = ("relu", "tanh")


@dataclass
class MlpParams:
    layer_sizes: list
    weights: list  # weights[l] has shape (layer_sizes[l+1], layer_sizes[l])
    biases: list   # biases[l] has shape (layer_sizes[l+1],)
    activation: str = "relu"


@dataclass
class ForwardCache:
    activations: list       # input to each layer, activations[0] is the net input


@dataclass
class OptState:
    optimizer: str = "sgd"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list = field(default_factory=list)  # [(mW, mb), ...], adam only
    v: list = field(default_factory=list)


def mlp_init(layer_sizes, activation="relu", seed=0):
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    if len(layer_sizes) < 2:
        raise ConfigurationError(f"need at least 2 layer sizes, got {layer_sizes}")
    if any(int(n) < 1 for n in layer_sizes):
        raise ConfigurationError(f"layer sizes must be positive, got {layer_sizes}")
    if activation not in ACTIVATIONS:
        raise ConfigurationError(f"unknown activation {activation!r}")
    sizes = [int(n) for n in layer_sizes]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(layer_sizes=sizes, weights=weights, biases=biases,
                     activation=activation)


def _activate(z, kind):
    """The activation of z, computed in place."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    return np.tanh(z, out=z)


def _activate_grad(a, kind):
    """The activation's derivative, from its output a."""
    if kind == "relu":
        return (a > 0.0).astype(float)
    return 1.0 - a ** 2


def mlp_forward(params, x):
    """Forward pass over a (batch, dim) matrix. Returns (output, cache).
    Hidden layers use the configured activation; the output layer is
    linear."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != params.layer_sizes[0]:
        raise ShapeError(f"input shape {a.shape} is not (batch, "
                         f"{params.layer_sizes[0]})")
    n_layers = len(params.weights)
    activations = [a]
    # in place on each layer's fresh output, to keep large temporaries few
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w.T
        a += b
        if l < n_layers - 1:
            _activate(a, params.activation)
            activations.append(a)
    return a, ForwardCache(activations=activations)


def mlp_backward(params, cache, output_grad):
    """Gradient of sum_rows(output . output_grad) w.r.t. every parameter.

    Returns an MlpParams holding gradients (same shapes)."""
    g = np.asarray(output_grad, dtype=float)
    n_layers = len(params.weights)
    out_shape = (cache.activations[0].shape[0], params.layer_sizes[-1])
    if g.shape != out_shape:
        raise ShapeError(
            f"output_grad shape {g.shape} != output shape {out_shape}")
    if len(cache.activations) != n_layers:
        raise ShapeError("cache does not match network depth")
    g_weights = [None] * n_layers
    g_biases = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        a_in = cache.activations[l]
        if a_in.shape[1] != params.weights[l].shape[1]:
            raise ShapeError(f"stale cache at layer {l}")
        g_weights[l] = g.T @ a_in
        g_biases[l] = g.sum(axis=0)
        if l > 0:
            g = (g @ params.weights[l]) * _activate_grad(a_in,
                                                         params.activation)
    return MlpParams(layer_sizes=list(params.layer_sizes), weights=g_weights,
                     biases=g_biases, activation=params.activation)


def grad_check(params, loss_and_grads, h):
    """Compare analytic gradients with central finite differences.

    loss_and_grads() returns (loss, grads) at the current values of params,
    with grads shaped like params; each entry of params is perturbed in
    place by +-h and restored. Returns the max relative error over all
    parameters."""
    if h <= 0:
        raise ConfigurationError(f"h must be positive, got {h}")
    _, analytic = loss_and_grads()
    max_err = 0.0
    for arr, g_arr in zip(params.weights + params.biases,
                          analytic.weights + analytic.biases):
        flat = arr.reshape(-1)
        g_flat = g_arr.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp, _ = loss_and_grads()
            flat[k] = orig - h
            lm, _ = loss_and_grads()
            flat[k] = orig
            numeric = (lp - lm) / (2.0 * h)
            denom = max(abs(g_flat[k]), abs(numeric), 1e-12)
            max_err = max(max_err, abs(g_flat[k] - numeric) / denom)
    return max_err


def init_opt_state(params, optimizer="sgd", lr=1e-3, beta1=0.9, beta2=0.999,
                   eps=1e-8):
    if optimizer not in ("sgd", "adam"):
        raise ConfigurationError(f"unknown optimizer {optimizer!r}")
    state = OptState(optimizer=optimizer, lr=lr, beta1=beta1, beta2=beta2,
                     eps=eps)
    if optimizer == "adam":
        state.m = [(np.zeros_like(w), np.zeros_like(b))
                   for w, b in zip(params.weights, params.biases)]
        state.v = [(np.zeros_like(w), np.zeros_like(b))
                   for w, b in zip(params.weights, params.biases)]
    return state


def opt_step(params, grads, state):
    """One optimizer update. Returns (new_params, state). The input params
    object is not mutated."""
    for g in grads.weights + grads.biases:
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient entries; aborting step")
    new_w, new_b = [], []
    state.step_count += 1
    if state.optimizer == "sgd":
        for w, b, gw, gb in zip(params.weights, params.biases,
                                grads.weights, grads.biases):
            new_w.append(w - state.lr * gw)
            new_b.append(b - state.lr * gb)
    else:
        t = state.step_count
        bc1 = 1.0 - state.beta1 ** t
        bc2 = 1.0 - state.beta2 ** t
        for l, (w, b, gw, gb) in enumerate(zip(params.weights, params.biases,
                                               grads.weights, grads.biases)):
            mw, mb = state.m[l]
            vw, vb = state.v[l]
            mw = state.beta1 * mw + (1 - state.beta1) * gw
            mb = state.beta1 * mb + (1 - state.beta1) * gb
            vw = state.beta2 * vw + (1 - state.beta2) * gw ** 2
            vb = state.beta2 * vb + (1 - state.beta2) * gb ** 2
            state.m[l] = (mw, mb)
            state.v[l] = (vw, vb)
            new_w.append(w - state.lr * (mw / bc1) / (np.sqrt(vw / bc2) + state.eps))
            new_b.append(b - state.lr * (mb / bc1) / (np.sqrt(vb / bc2) + state.eps))
    out = MlpParams(layer_sizes=list(params.layer_sizes), weights=new_w,
                    biases=new_b, activation=params.activation)
    for arr in out.weights + out.biases:
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite parameters after optimizer step")
    return out, state


def copy_params(src):
    return MlpParams(layer_sizes=list(src.layer_sizes),
                     weights=[w.copy() for w in src.weights],
                     biases=[b.copy() for b in src.biases],
                     activation=src.activation)


def polyak_update(target, online, tau):
    """target <- (1-tau)*target + tau*online, returned as a new MlpParams."""
    if target.layer_sizes != online.layer_sizes:
        raise ShapeError(
            f"layer sizes differ: {target.layer_sizes} vs {online.layer_sizes}")
    return MlpParams(
        layer_sizes=list(target.layer_sizes),
        weights=[(1 - tau) * tw + tau * ow
                 for tw, ow in zip(target.weights, online.weights)],
        biases=[(1 - tau) * tb + tau * ob
                for tb, ob in zip(target.biases, online.biases)],
        activation=target.activation)
