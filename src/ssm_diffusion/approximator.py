"""Minimal ReLU MLP with explicit forward/backward passes and an Adam
optimizer.

Everything is float64 numpy. Forward takes a (batch, dim) matrix, one row
per input; backward sums the gradients over the rows. Parameters,
gradients and Adam moments are each one flat vector laid out by MlpParams.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError


def param_count(layer_sizes):
    """The length of theta: every layer's weights and biases."""
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))


@dataclass
class MlpParams:
    """A network's parameters as one float64 vector theta: every weight
    matrix in layer order, then every bias. weights[l], of shape
    (layer_sizes[l+1], layer_sizes[l]), and biases[l] are views into it."""
    layer_sizes: list
    theta: np.ndarray
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        self.theta = np.ascontiguousarray(self.theta, dtype=float)
        if self.theta.shape != (param_count(self.layer_sizes),):
            raise ShapeError(f"theta shape {self.theta.shape} does not fit "
                             f"layer sizes {self.layer_sizes}")
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        shapes = [(fan_out, fan_in) for fan_in, fan_out in pairs] + \
            [(fan_out,) for _, fan_out in pairs]
        views, start = [], 0
        for shape in shapes:
            end = start + math.prod(shape)
            views.append(self.theta[start:end].reshape(shape))
            start = end
        self.weights, self.biases = views[:len(pairs)], views[len(pairs):]


@dataclass
class OptState:
    """Adam's state: its first and second moments m and v, each shaped like
    theta, its step count and its hyperparameters."""
    m: np.ndarray
    v: np.ndarray
    lr: float
    beta1: float
    beta2: float
    eps: float
    step_count: int = 0


def mlp_init(layer_sizes, seed=0):
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    if len(layer_sizes) < 2:
        raise ConfigurationError(f"need at least 2 layer sizes, got {layer_sizes}")
    if any(int(n) < 1 for n in layer_sizes):
        raise ConfigurationError(f"layer sizes must be positive, got {layer_sizes}")
    sizes = [int(n) for n in layer_sizes]
    rng = np.random.default_rng(seed)
    params = MlpParams(layer_sizes=sizes, theta=np.zeros(param_count(sizes)))
    for w in params.weights:
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def mlp_forward(params, x, out=None):
    """Forward pass over a (batch, dim) matrix. Returns (output,
    activations), where activations[l] is the input to layer l. Hidden
    layers are ReLU; the output layer is linear.

    out, if given, holds one (batch, layer_sizes[l+1]) array per layer,
    which receives that layer's output in place of a new array."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != params.layer_sizes[0]:
        raise ShapeError(f"input shape {a.shape} is not (batch, "
                         f"{params.layer_sizes[0]})")
    n_layers = len(params.weights)
    activations = [a]
    # in place on each layer's output, to keep large temporaries few
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = np.matmul(a, w.T, out=None if out is None else out[l])
        a += b
        if l < n_layers - 1:
            np.maximum(a, 0.0, out=a)
            activations.append(a)
    return a, activations


def mlp_backward(params, activations, output_grad, out=None, g_out=None):
    """Gradient of sum_rows(output . output_grad) w.r.t. every parameter.

    Returns an MlpParams holding the gradients: out, if given, shaped like
    params. g_out, if given, is laid out as mlp_forward's out, and each
    hidden layer's array receives the gradient flowing back into that
    layer's output in place of a new array."""
    g = np.asarray(output_grad, dtype=float)
    n_layers = len(params.weights)
    out_shape = (activations[0].shape[0], params.layer_sizes[-1])
    if g.shape != out_shape:
        raise ShapeError(
            f"output_grad shape {g.shape} != output shape {out_shape}")
    if len(activations) != n_layers:
        raise ShapeError("activations do not match network depth")
    grads = out if out is not None else MlpParams(
        layer_sizes=list(params.layer_sizes),
        theta=np.empty_like(params.theta))
    for l in range(n_layers - 1, -1, -1):
        a_in = activations[l]
        if a_in.shape[1] != params.weights[l].shape[1]:
            raise ShapeError(f"stale activations at layer {l}")
        np.matmul(g.T, a_in, out=grads.weights[l])
        np.sum(g, axis=0, out=grads.biases[l])
        if l > 0:
            # times ReLU's derivative in place; the mask casts to 1.0 and
            # 0.0 inside the multiply, as a float mask would
            g = np.matmul(g, params.weights[l],
                          out=None if g_out is None else g_out[l - 1])
            g *= a_in > 0.0
    return grads


def grad_check(params, loss_and_grads, h):
    """Compare analytic gradients with central finite differences.

    loss_and_grads() returns (loss, grads) at the current values of params,
    with grads shaped like params; each entry of params.theta is perturbed
    in place by +-h and restored. The analytic gradients are copied before
    the first perturbation, as loss_and_grads may return them in a buffer
    that its next call overwrites. Returns the max relative error over all
    parameters."""
    if h <= 0:
        raise ConfigurationError(f"h must be positive, got {h}")
    _, analytic = loss_and_grads()
    theta, g = params.theta, analytic.theta.copy()
    max_err = 0.0
    for k in range(theta.size):
        orig = theta[k]
        theta[k] = orig + h
        lp, _ = loss_and_grads()
        theta[k] = orig - h
        lm, _ = loss_and_grads()
        theta[k] = orig
        numeric = (lp - lm) / (2.0 * h)
        denom = max(abs(g[k]), abs(numeric), 1e-12)
        max_err = max(max_err, abs(g[k] - numeric) / denom)
    return max_err


def init_opt_state(params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam at step 0: zero moments shaped like params' theta."""
    return OptState(m=np.zeros_like(params.theta),
                    v=np.zeros_like(params.theta), lr=lr, beta1=beta1,
                    beta2=beta2, eps=eps)


def opt_step(params, grads, state, scratch=None):
    """One Adam update. Returns (new_params, state). Neither params nor
    grads is mutated; state's step count and moments are updated in place.
    The new parameters are a new vector. scratch, if given, is a
    theta-shaped array used as the temporary in place of a new one; the new
    vector is its second."""
    g = grads.theta
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient entries; aborting step")
    state.step_count += 1
    theta = np.empty_like(params.theta)
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    m, v = state.m, state.v
    tmp = np.empty_like(g) if scratch is None else scratch
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and the step
    # lr (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time in the
    # order the formulas evaluate, into tmp and theta
    m *= state.beta1
    np.multiply(g, 1 - state.beta1, out=tmp)
    m += tmp
    v *= state.beta2
    np.square(g, out=tmp)
    tmp *= 1 - state.beta2
    v += tmp
    np.divide(m, bc1, out=tmp)
    tmp *= state.lr
    np.divide(v, bc2, out=theta)
    np.sqrt(theta, out=theta)
    theta += state.eps
    np.divide(tmp, theta, out=theta)
    np.subtract(params.theta, theta, out=theta)
    if not np.all(np.isfinite(theta)):
        raise NumericError("non-finite parameters after optimizer step")
    return MlpParams(layer_sizes=list(params.layer_sizes), theta=theta), state


def copy_params(src):
    return MlpParams(layer_sizes=list(src.layer_sizes), theta=src.theta.copy())


@dataclass
class FoldedMlp:
    """A read-only copy of a network for the inputs [x | c_j] of a chain's
    steps j, with step j's context c_j shared by every row, laid out so
    that each hidden layer is one matmul and no bias add. A chain's
    workers share one.

    Hidden layer l's weights are [W_l | b_l], read on [h | 1]. A hidden
    layer whose next layer is also hidden has one more row [0 ... 0 1], so
    its matmul writes the next layer's ones column, which ReLU keeps. The
    first layer keeps only x's weights, once per step, with that step's
    bias c_j @ W_c.T + b_0. The output layer keeps its bias add, which
    costs little on its few columns; folded into so narrow a product, the
    bias would move output bits, as OpenBLAS then takes another kernel."""
    dim: int            # the width of x
    first: np.ndarray   # (steps, rows, dim + 1): each step's first layer
    weights: list       # later hidden layers' [W | b], then the output W
    bias: np.ndarray    # the output layer's


def _augmented(w, b, ones_row):
    """[W | b], over [0 ... 0 1] if ones_row; one per row of b's leading
    axes."""
    fan_out, fan_in = w.shape
    aug = np.zeros(b.shape[:-1] + (fan_out + ones_row, fan_in + 1))
    aug[..., :fan_out, :fan_in] = w
    aug[..., :fan_out, fan_in] = b
    aug[..., fan_out:, fan_in] = 1.0
    return aug


def fold_biases(params, dim, context):
    """Fold the network for inputs whose first `dim` columns are x and the
    rest step j's context, row j of the (steps, width) matrix `context`:
    folded_forward(folded, j, x, out) gives mlp_forward(params, [x |
    context[j]]). The fold is a read-only copy: params is not changed. A
    network with no hidden layer to take the context raises ShapeError."""
    n_hidden = len(params.weights) - 1
    if n_hidden < 1:
        raise ShapeError("a network with no hidden layer cannot be folded")
    if context.ndim != 2 or dim + context.shape[1] != params.layer_sizes[0]:
        raise ShapeError(f"x of width {dim} and context of shape "
                         f"{context.shape} do not give the network's "
                         f"{params.layer_sizes[0]} inputs")
    w_ctx = params.weights[0][:, dim:].copy()
    first = _augmented(params.weights[0][:, :dim],
                       context @ w_ctx.T + params.biases[0], n_hidden > 1)
    weights = [_augmented(params.weights[l], params.biases[l],
                          l + 1 < n_hidden) for l in range(1, n_hidden)]
    folded = FoldedMlp(dim=dim, first=first,
                       weights=weights + [params.weights[-1].copy()],
                       bias=params.biases[-1].copy())
    for a in [folded.first, *folded.weights, folded.bias]:
        a.flags.writeable = False
    return folded


def folded_buffers(folded, rows):
    """The arrays folded_forward writes for up to `rows` rows: the input
    [x | 1] with its ones column set, each hidden layer's output and the
    network's output."""
    out = [np.empty((rows, a.shape[-1]))
           for a in (folded.first, *folded.weights, folded.bias)]
    out[0][:, folded.dim:] = 1.0
    return out


def folded_forward(folded, j, x, out):
    """The folded network's output at step j (a row of fold_biases'
    context) for a (batch, dim) matrix x. out is folded_buffers' list,
    each array cut to the batch's leading rows."""
    if x.ndim != 2 or x.shape[1] != folded.dim:
        raise ShapeError(f"input shape {x.shape} is not (batch, {folded.dim})")
    a = out[0]
    a[:, :folded.dim] = x
    for l, w in enumerate([folded.first[j], *folded.weights[:-1]]):
        a = np.matmul(a, w.T, out=out[l + 1])
        np.maximum(a, 0.0, out=a)
    y = np.matmul(a, folded.weights[-1].T, out=out[-1])
    y += folded.bias
    return y
