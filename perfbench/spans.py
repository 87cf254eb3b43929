"""In-memory spans recorded from outside the program.

A `Tracer` wraps functions of the `ssm_diffusion` package and aggregates
one record per (name, parent) pair: call count, total time and self time,
where self time is a call's duration minus the time of the wrapped calls
made inside it. Per-row functions run thousands of times per training
step, so only the benchmark's own operations (a training step, an eval
condition, a CLI pipeline) are kept as individual spans.

`instrumented(tracer)` installs the wrappers wherever the package binds
each target, so a name imported with `from .x import f` is wrapped too, and
restores every original on exit.
"""

import contextlib
import functools
import importlib
import os
import sys
import time

import numpy as np

PACKAGE = "ssm_diffusion"


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.agg = {}          # (name, parent) -> [calls, total_ns, self_ns]
        self.counts = {}       # counter name -> number
        self.spans = []        # (id, name, parent_id, start_ns, end_ns)
        self._frames = []      # open frames: [name, child_ns, span_id]

    def add(self, counter, value):
        self.counts[counter] = self.counts.get(counter, 0) + value

    def _close(self, name, parent, frame, dur):
        rec = self.agg.get((name, parent))
        if rec is None:
            rec = self.agg[(name, parent)] = [0, 0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]
        if self._frames:
            self._frames[-1][1] += dur

    def wrap(self, name, fn, hook=None):
        """Return `fn` wrapped in an aggregated span called `name`.

        `hook(tracer, args, kwargs, result)` runs after a successful call to
        record counters; its time is charged to no layer."""
        clock, frames = self.clock, self._frames

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = frames[-1][0] if frames else None
            frame = [name, 0, None]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                frames.pop()
                self._close(name, parent, frame, dur)
            if hook is not None:
                h0 = clock()
                hook(self, args, kwargs, result)
                if frames:
                    frames[-1][1] += clock() - h0
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """An individually kept span, for one benchmark operation."""
        parent = self._frames[-1] if self._frames else None
        span_id = len(self.spans)
        self.spans.append(None)
        frame = [name, 0, span_id]
        self._frames.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._frames.pop()
            self._close(name, parent[0] if parent else None, frame, end - start)
            self.spans[span_id] = (span_id, name,
                                   parent[2] if parent else None, start, end)

    def totals(self):
        """name -> (calls, total_ns, self_ns), summed over parents."""
        out = {}
        for (name, _), (calls, total, self_ns) in self.agg.items():
            c, t, s = out.get(name, (0, 0, 0))
            out[name] = (c + calls, t + total, s + self_ns)
        return out

    def dump(self):
        """JSON-ready record of every aggregate, counter and kept span."""
        return {
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_ns": t,
                 "self_ns": s}
                for (n, p), (c, t, s) in sorted(
                    self.agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
            "counters": dict(sorted(self.counts.items())),
            "spans": [dict(zip(("id", "name", "parent", "start_ns", "end_ns"),
                               s)) for s in self.spans],
        }


# -- counters recorded at the layer boundaries ------------------------------

def _mlp_cost(sizes, rows, backward):
    """Computed flops and bytes of one pass over `rows` float64 rows: the
    matmul, bias and activation work of each layer, with every weight,
    input and output array read or written once (cache misses ignored)."""
    flops = byts = 0
    n_layers = len(sizes) - 1
    for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        act = rows * fan_out if l < n_layers - 1 else 0
        if not backward:
            flops += 2 * rows * fan_in * fan_out + rows * fan_out + act
            byts += 8 * (fan_in * fan_out + fan_out + rows * (fan_in + fan_out))
        else:
            # grad_W = g^T a and grad_b = sum(g); below layer 0 also g W
            flops += 2 * rows * fan_in * fan_out + rows * fan_out
            byts += 8 * (fan_in * fan_out + fan_out + rows * (fan_in + fan_out))
            if l > 0:
                flops += 2 * rows * fan_in * fan_out + 2 * rows * fan_in
                byts += 8 * (fan_in * fan_out + 2 * rows * fan_in)
    return flops, byts


def _rows(x):
    x = np.asarray(x)
    return x.shape[0] if x.ndim == 2 else 1


def _hook_forward(tracer, args, kwargs, result):
    rows = _rows(args[1])
    flops, byts = _mlp_cost(args[0].layer_sizes, rows, backward=False)
    tracer.add("approximator.mlp_forward.rows", rows)
    tracer.add("approximator.flops", flops)
    tracer.add("approximator.bytes", byts)


def _hook_backward(tracer, args, kwargs, result):
    rows = _rows(args[2])
    flops, byts = _mlp_cost(args[0].layer_sizes, rows, backward=True)
    tracer.add("approximator.mlp_backward.rows", rows)
    tracer.add("approximator.flops", flops)
    tracer.add("approximator.bytes", byts)


def _hook_sample_tuple(tracer, args, kwargs, result):
    tracer.add("replay.tuples", 1)
    tracer.add("replay.l1_tuples", int(result.is_l1))


def _hook_train_step(tracer, args, kwargs, result):
    tracer.add("bellman_loss.l2_rows", sum(not t.is_l1 for t in args[1]))


def _hook_decode(tracer, args, kwargs, result):
    mdp, vs = args[0], np.asarray(args[1], dtype=float)
    outside = np.zeros(len(vs), dtype=bool)
    for col, cells in ((0, mdp.width), (1, mdp.height)):
        if cells > 1:
            raw = np.rint((vs[:, col] + 1.0) * (cells - 1) / 2.0)
            outside |= (raw < 0) | (raw > cells - 1)
    tracer.add("mdp.decoded", len(vs))
    tracer.add("mdp.clamped", int(outside.sum()))


def _hook_eval_model(tracer, args, kwargs, result):
    tv1 = [r["tv"] for r in result.rows if r["n"] == 1]
    tracer.add("evaluation.tv_n1_sum", sum(tv1))
    tracer.add("evaluation.tv_n1_count", len(tv1))
    tracer.add("evaluation.q_err_sum", sum(r["q_abs_err"] for r in result.rows))
    tracer.add("evaluation.q_err_count", len(result.rows))


def _hook_file_bytes(counter):
    def hook(tracer, args, kwargs, result):
        tracer.add(counter, os.path.getsize(args[0]))
    return hook


# (module, attribute, counter hook); "Class.method" wraps the method on its
# class, anything else is wrapped in every package module that binds it
TARGETS = [
    ("replay", "ReplayBuffer.sample_tuple", _hook_sample_tuple),
    ("replay", "ReplayBuffer.push_trajectory", None),
    ("bellman_loss", "train_step", _hook_train_step),
    ("bellman_loss", "conditioning", None),
    ("bellman_loss", "sync_target", None),
    ("diffusion", "forward_noise", None),
    ("diffusion", "net_input", None),
    ("diffusion", "sinusoidal_embedding", None),
    ("diffusion", "loss_weight", None),
    ("diffusion", "sample", None),
    ("diffusion", "reverse_step", None),
    ("approximator", "mlp_forward", _hook_forward),
    ("approximator", "mlp_backward", _hook_backward),
    ("approximator", "opt_step", None),
    ("approximator", "copy_params", None),
    ("mdp", "rollout", None),
    ("mdp", "encode_state", None),
    ("mdp", "encode_action", None),
    ("mdp", "decode_states", _hook_decode),
    ("evaluation", "eval_model", _hook_eval_model),
    ("evaluation", "sample_condition", None),
    ("evaluation", "empirical_pmf", None),
    ("oracle", "exact_ssm", None),
    ("checkpoint", "save_checkpoint",
     _hook_file_bytes("checkpoint.save_checkpoint.bytes")),
    ("checkpoint", "load_checkpoint",
     _hook_file_bytes("checkpoint.load_checkpoint.bytes")),
    ("runner", "run_training", None),
    ("runner", "run_eval", None),
    ("runner", "write_heatmaps", None),
    ("runner", "write_oracle_csvs", None),
    ("config", "load_config", None),
]


def span_name(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def instrumented(tracer, targets=TARGETS):
    """Wrap every target for the duration of the block, then restore the
    original objects at every place they were replaced."""
    patched = []    # (owner, attribute, original)
    try:
        for module, attr, hook in targets:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                patched.append((owner, meth, orig))
                setattr(owner, meth, tracer.wrap(name, orig, hook))
                continue
            orig = getattr(mod, attr)
            wrapper = tracer.wrap(name, orig, hook)
            for m in _package_modules():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        patched.append((m, key, orig))
                        setattr(m, key, wrapper)
        yield tracer
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)
