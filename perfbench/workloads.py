"""The benchmark's workloads, their output checks and their metrics.

Every workload repeats one operation of the program and times each one:

- train_headline: one training step of the headline config (replay
  sampling of B=128 tuples, `bellman_loss.train_step`, and a rollout every
  10 steps, as in `runner.run_training`);
- eval_headline: one condition of the headline eval set, 2000 samples
  through `evaluation.eval_model`, on a network initialised with seed 999
  so that set-up does not depend on training speed;
- learn_small: one whole `train` -> `eval` -> `oracle` pipeline through
  `cli.main` on a 3x3 grid, with a new training seed for each pipeline.

The end-to-end metrics are the same on every workload and are read for
that workload's operation; see `END_TO_END` and `Meter`. `traced_run` does
a fixed amount of work untraced, traced and untraced again at one seed,
checks that all three give identical outputs, and reports the per-layer
metrics of `PER_LAYER` from the traced pass.
"""

import contextlib
import copy
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from ssm_diffusion import bellman_loss as bl
from ssm_diffusion import cli
from ssm_diffusion import evaluation as ev
from ssm_diffusion import mdp as mdp_mod
from ssm_diffusion import oracle as orc
from ssm_diffusion import runner
from ssm_diffusion.config import config_digest, load_config, validate_config
from ssm_diffusion.replay import ReplayBuffer

import spans

# the checkout: the benchmark's directory sits at its root
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HEADLINE_RAW = {
    "env": {"width": 5, "height": 5, "p_move": 0.8, "horizon": 8},
    "diffusion": {"K": 32},
    "model": {"hidden_sizes": [128, 128]},
    "training": {"steps": 0, "batch_size": 128, "optimizer": "adam"},
    # eval_headline's samples per condition. The headline's 10k make each
    # sampling array ~10 MB, streamed through memory that other tenants of
    # the host share: across runs of the same code its rate then swung
    # between 0.55x and 1x, beyond what `HostGauge` can correct, and one
    # pass of 75 conditions took 50-75 s on one BLAS thread.
    "eval": {"num_samples": 2000},
}

LEARN_RAW = {
    "env": {"width": 3, "height": 3, "horizon": 4},
    "diffusion": {"K": 32},
    "model": {"hidden_sizes": [64, 64]},
    "training": {"steps": 1500, "batch_size": 128},
    "eval": {"num_samples": 2000},
}

# fixed network seed of the untrained eval_headline model
EVAL_NET_SEED = 999


@dataclass(frozen=True)
class Sizes:
    """How much work one run does beyond its time budget."""
    headline: dict = field(default_factory=lambda: HEADLINE_RAW)
    learn: dict = field(default_factory=lambda: LEARN_RAW)
    min_steps: int = 1000        # past the TV probe, and many windows
    probe_step: int = 500        # train_headline's TV is read at this step
    probe_samples: int = 500     # per condition, for that TV
    setup_reps: int = 3          # set-ups before the first operation
    setup_every_s: float = 2.5   # one more set-up per this much of the run
    warmup_s: float = 1.0        # operation time not measured at the start
    window_s: float = 0.5        # operation time per rate window
    trace_steps: int = 300
    trace_conditions: int = 6
    # learn_small's TV is the mean over this many pipelines, one training
    # seed each, because a single seed's TV spreads too widely
    learn_min_pipelines: int = 4
    # each learn_small pipeline must reach this mean TV: the headline
    # acceptance gate
    tv_gate: float = 0.20


FULL = Sizes()


def _tiny(raw, **sections):
    out = copy.deepcopy(raw)
    for name, values in sections.items():
        out[name].update(values)
    return out


# a seconds-long version of every workload, for the benchmark's own tests
TINY = Sizes(
    headline=_tiny(HEADLINE_RAW, env={"width": 3, "height": 3, "horizon": 4},
                   diffusion={"K": 4}, model={"hidden_sizes": [8]},
                   training={"batch_size": 16, "initial_trajectories": 20},
                   eval={"num_samples": 50}),
    learn=_tiny(LEARN_RAW, env={"width": 2, "height": 2, "horizon": 2},
                diffusion={"K": 4}, model={"hidden_sizes": [8]},
                training={"steps": 20, "batch_size": 8,
                          "initial_trajectories": 10},
                eval={"num_samples": 50}),
    min_steps=20, probe_step=10, probe_samples=20, setup_reps=2,
    setup_every_s=60.0, warmup_s=0.0, window_s=0.01,
    trace_steps=5, trace_conditions=2, tv_gate=1.0)

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("mean_tv", "tv", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_LAYER_UNITS = {"calls": "count", "self_ms": "ms"}
_COUNTERS = [
    ("replay.l1_fraction", "ratio", "higher"),
    ("bellman_loss.l2_rows", "count", "lower"),
    ("approximator.mlp_forward.rows", "count", "lower"),
    ("approximator.mlp_backward.rows", "count", "lower"),
    ("approximator.flops", "flop_computed", "lower"),
    ("approximator.bytes", "B_computed", "lower"),
    ("approximator.gflops_per_s", "Gflop/s_computed", "higher"),
    ("mdp.decode_clamped_frac", "ratio", "lower"),
    ("evaluation.tv_n1", "tv", "lower"),
    ("evaluation.mean_q_err", "abs_err", "lower"),
    ("checkpoint.save_checkpoint.bytes", "B", "lower"),
    ("checkpoint.load_checkpoint.bytes", "B", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
# (name, unit, better)
PER_LAYER = [(f"{spans.span_name(m, a)}.{kind}", _LAYER_UNITS[kind], "lower")
             for m, a, _ in spans.TARGETS for kind in ("calls", "self_ms")]
PER_LAYER += _COUNTERS


@dataclass
class Outcome:
    """Operations attempted and failed, plus the metrics of one run."""
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    raw: dict = field(default_factory=dict)       # see `Meter.raw`

    def op(self, ok):
        self.attempted += 1
        self.failed += not ok
        return ok


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _seeded(raw, seed):
    """The workload's config with the benchmark seed as the program's
    training and eval seeds."""
    raw = copy.deepcopy(raw)
    raw["training"]["seed"] = seed
    raw["eval"]["seed"] = seed
    return raw


def _headline_cfg(seed, sizes):
    return validate_config(_seeded(sizes.headline, seed))


def import_seconds():
    """Time to import the program in a fresh interpreter: a new process
    pays it once, so it is measured in a child process."""
    code = ("import time; t = time.perf_counter(); import ssm_diffusion.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return float(subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=60).stdout)


class HostGauge:
    """A fixed calibration kernel, to read how fast the host runs now.

    Other tenants of a small shared host slow its vCPUs by up to 1.8x, for
    seconds or for minutes at a time; CPU time slows with wall time, so it
    is not steal. The kernel mixes the kinds of work the program does:
    interpreted Python, small matmuls that fit in cache, and a large
    matmul that streams memory. `factor()` is its time now over
    `NOMINAL_S`, its time on a 2-vCPU cloud host when no other tenant is
    busy, so a time divided by the factor is in seconds of that quiet
    host."""

    NOMINAL_S = 0.020

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.standard_normal((4096, 128))
        self.w = rng.standard_normal((128, 128)) / 12.0

    def kernel(self):
        d = {}
        for i in range(40_000):
            d[i & 255] = d.get(i & 255, 0) + i
        small = self.big[:128]
        for _ in range(40):
            small = np.tanh(small @ self.w)
        big = self.big
        for _ in range(2):
            big = np.tanh(big @ self.w)

    def factor(self, reps=1):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) / self.NOMINAL_S


class Meter:
    """Times one run: its set-ups and its operations, in quiet-host seconds.

    Operation time is cut into windows of `window_s`, after `warmup_s` of
    warm-up. After each window the `HostGauge` reads the host's speed, for
    about a twentieth of the window's time, and the window's rate is
    corrected by the mean of the readings on either side of it (the one
    before it ends the last window or set-up); `items_per_s` is the
    median of the corrected rates.
    Without the correction a run's rate measures how busy the other
    tenants were: across runs of the same code it read between 0.6x and
    1x of its best.

    The set-up is repeated through the run, one per `setup_every_s`, each
    corrected by a reading right after it; `setup_s` is their median.
    `raw()` gives the uncorrected medians and the median host factor."""

    def __init__(self, sizes, build, warmup_s=None, gauge=None):
        self.sizes, self.build = sizes, build
        self.warmup_s = sizes.warmup_s if warmup_s is None else warmup_s
        self.gauge = gauge or HostGauge()
        self.setups, self.rates = [], []
        self.state = None
        self._last = None    # the latest host factor read
        self._warm = self._busy = self._items = 0.0
        self._t0 = time.perf_counter()
        for _ in range(sizes.setup_reps):
            self.setup_once()

    def setup_once(self):
        """One set-up as a new process pays it: the program's import in a
        fresh interpreter plus `build()` here. The first result is kept."""
        t0 = time.perf_counter()
        state = self.build()
        seconds = time.perf_counter() - t0 + import_seconds()
        self._last = self.gauge.factor()
        self.setups.append((seconds, self._last))
        if self.state is None:
            self.state = state

    def between_ops(self):
        due = self.sizes.setup_reps + int(
            (time.perf_counter() - self._t0) / self.sizes.setup_every_s)
        while len(self.setups) < due:
            self.setup_once()

    def op_done(self, seconds, items):
        if self._warm < self.warmup_s:
            self._warm += seconds
            return
        self._busy += seconds
        self._items += items
        if self._busy >= self.sizes.window_s:
            reps = max(1, round(self._busy / 20.0 / HostGauge.NOMINAL_S))
            before, self._last = self._last, self.gauge.factor(reps)
            self.rates.append((self._items / self._busy,
                               (before + self._last) / 2.0))
            self._busy = self._items = 0.0

    def _windows(self):
        if self.rates or not self._busy:
            return self.rates
        return [(self._items / self._busy, self.gauge.factor())]

    def metrics(self, mean_tv):
        rates = self._windows()
        return {
            "setup_s": (statistics.median(s / f for s, f in self.setups),
                        "s"),
            "items_per_s": (statistics.median(r * f for r, f in rates)
                            if rates else float("nan"), "1/s"),
            "mean_tv": (mean_tv, "tv"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def raw(self):
        """Uncorrected medians, and the median host factor of the run."""
        rates = self._windows()
        factors = [f for _, f in rates + self.setups]
        return {"setup_s": statistics.median(s for s, _ in self.setups),
                "items_per_s": statistics.median(r for r, _ in rates),
                "host_factor": statistics.median(factors)}


def _eval_set(cfg, mdp, policy):
    return [(s, int(policy.table[s]), n)
            for n in runner.eval_n_values(cfg) for s in range(mdp.n_states)]


# slack for rounding in a pmf's sum and a TV: the program has returned a TV
# of 1 + 2e-16 for a sampled pmf disjoint from the exact one
ROUNDING = 1e-9


def _pmf_ok(row):
    return (abs(sum(row["pmf"]) - 1.0) < ROUNDING
            and -ROUNDING <= row["tv"] <= 1.0 + ROUNDING
            and all(math.isfinite(row[k]) for k in ("tv", "q_est")))


# -- train_headline ---------------------------------------------------------

def _train_setup(seed, sizes):
    """Everything `runner.run_training` does before its first step."""
    cfg = _headline_cfg(seed, sizes)
    mdp, policy = runner.build_env(cfg)
    rng = np.random.default_rng(cfg.training["seed"])
    trainer = runner.build_trainer(cfg)
    buf = ReplayBuffer(mdp, policy, cfg.training["buffer_capacity"])
    for e in range(cfg.training["initial_trajectories"]):
        buf.push_trajectory(mdp_mod.rollout(mdp, policy, rng, episode_id=e))
    return cfg, mdp, policy, trainer, buf, rng


def _train_op(state, step_idx):
    cfg, mdp, policy, trainer, buf, rng = state
    trn = cfg.training
    if trn["collect_every"] > 0 and step_idx % trn["collect_every"] == 0:
        buf.push_trajectory(
            mdp_mod.rollout(mdp, policy, rng, episode_id=step_idx))
    batch = [buf.sample_tuple(rng) for _ in range(trn["batch_size"])]
    return bl.train_step(trainer, batch, rng)


def expected_l1_fraction(horizon):
    """P(immediate-successor tuple) with n uniform on {1..H}: H_H / H."""
    return sum(1.0 / n for n in range(1, horizon + 1)) / horizon


def _l1_check(out, fractions, horizon, batch_size):
    p = expected_l1_fraction(horizon)
    sigma = math.sqrt(p * (1 - p) / (batch_size * len(fractions)))
    out.op(abs(statistics.fmean(fractions) - p) <= 5 * sigma)


def _tv_probe(out, state, samples):
    """Mean TV over the headline eval set at `samples` per condition."""
    cfg, mdp, policy, trainer, _, _ = state
    table = orc.exact_ssm(mdp, policy, cfg.env["horizon"])
    report = ev.eval_model(trainer, mdp, table, _eval_set(cfg, mdp, policy),
                           samples, np.random.default_rng(cfg.eval["seed"]))
    out.op(all(_pmf_ok(r) for r in report.rows))
    return report.mean_tv


def train_headline(seed, seconds, sizes=FULL):
    out = Outcome()
    meter = Meter(sizes, lambda: _train_setup(seed, sizes))
    state = meter.state
    trn = state[0].training
    fractions, tv = [], None
    deadline = time.perf_counter() + seconds
    step = 0
    while time.perf_counter() < deadline or step < sizes.min_steps:
        meter.between_ops()
        t0 = time.perf_counter()
        try:
            stats = _train_op(state, step)
        except (ArithmeticError, ValueError):
            out.op(False)
            break
        meter.op_done(time.perf_counter() - t0, trn["batch_size"])
        out.op(math.isfinite(stats["loss"]))
        fractions.append(stats["l1_fraction"])
        step += 1
        if step == sizes.probe_step:
            t_probe = time.perf_counter()
            tv = _tv_probe(out, state, sizes.probe_samples)
            deadline += time.perf_counter() - t_probe
    if fractions:
        _l1_check(out, fractions, state[0].env["horizon"], trn["batch_size"])
    if tv is None:
        out.op(False)
    out.metrics = meter.metrics(tv if tv is not None else 1.0)
    out.raw = meter.raw()
    return out


# -- eval_headline ----------------------------------------------------------

def _eval_setup(seed, sizes):
    cfg = _headline_cfg(seed, sizes)
    mdp, policy = runner.build_env(cfg)
    trainer = runner.build_trainer(cfg, seed=EVAL_NET_SEED)
    table = orc.exact_ssm(mdp, policy, cfg.env["horizon"])
    return cfg, mdp, trainer, table, _eval_set(cfg, mdp, policy)


def _eval_op(state, cond, rng):
    """One condition of `eval_model`; the rng carries over between calls
    exactly as it does inside one call over the whole set."""
    cfg, mdp, trainer, table, _ = state
    return ev.eval_model(trainer, mdp, table, [cond],
                         cfg.eval["num_samples"], rng).rows[0]


def eval_headline(seed, seconds, sizes=FULL):
    out = Outcome()
    meter = Meter(sizes, lambda: _eval_setup(seed, sizes))
    state = meter.state
    eval_set = state[4]
    samples = state[0].eval["num_samples"]
    rng = np.random.default_rng(state[0].eval["seed"])
    tvs = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < len(eval_set):
        meter.between_ops()
        t0 = time.perf_counter()
        try:
            row = _eval_op(state, eval_set[i % len(eval_set)], rng)
        except (ArithmeticError, ValueError):
            out.op(False)
            break
        meter.op_done(time.perf_counter() - t0, samples)
        if out.op(_pmf_ok(row)) and i < len(eval_set):
            tvs.append(row["tv"])
        i += 1
    mean_tv = statistics.fmean(tvs) if len(tvs) == len(eval_set) else 1.0
    out.metrics = meter.metrics(mean_tv)
    out.raw = meter.raw()
    return out


# -- learn_small ------------------------------------------------------------

def _learn_setup(seed, sizes, work_dir):
    raw = _seeded(sizes.learn, seed)
    path = os.path.join(work_dir, f"config{seed}.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path, load_config(path)


def _digest_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def _outputs_stamped(out_dir, digest, files):
    """Every text output of one command carries the config digest."""
    for name in files:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            return False
        if name.endswith(".csv"):
            if _digest_lines(path)[0] != f"# config_digest={digest}":
                return False
        elif name.endswith(".json"):
            with open(path) as fh:
                if json.load(fh)["config_digest"] != digest:
                    return False
        elif name.endswith(".jsonl"):
            if any(json.loads(line)["config_digest"] != digest
                   for line in _digest_lines(path)):
                return False
    return True


def _summary_tv(eval_dir):
    with open(os.path.join(eval_dir, "metrics.jsonl")) as fh:
        return [json.loads(line) for line in fh][-1]["mean_tv"]


def _learn_op(out, cfg_path, cfg, pipe_dir, tv_gate):
    """train -> eval -> oracle through the CLI; returns the mean TV or None.
    Each command is one operation; its output checks count against it."""
    digest = config_digest(cfg)
    train_dir, eval_dir, oracle_dir = (os.path.join(pipe_dir, d) for d in
                                       ("train", "eval", "oracle"))
    commands = [
        (["train", "--config", cfg_path, "--out", train_dir],
         train_dir, ("loss.csv", "manifest.json")),
        (["eval", "--checkpoint", os.path.join(train_dir, "checkpoint.bin"),
          "--config", cfg_path, "--out", eval_dir],
         eval_dir, ("metrics.jsonl", "metrics.csv")),
        (["oracle", "--config", cfg_path, "--out", oracle_dir],
         oracle_dir, ("ssm_oracle.csv", "q_oracle.csv")),
    ]
    tv = None
    for argv, out_dir, files in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        try:
            ok = code == 0 and _outputs_stamped(out_dir, digest, files)
        except (OSError, ValueError, KeyError, IndexError):
            ok = False
        if ok and argv[0] == "eval":
            tv = _summary_tv(eval_dir)
            ok = 0.0 <= tv < tv_gate
        if not out.op(ok):
            return None
    return tv


@contextlib.contextmanager
def _scratch_dir(root):
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# pipeline k of a learn_small run trains at seed + k * LEARN_SEED_STRIDE, so
# runs at different benchmark seeds share no training seed
LEARN_SEED_STRIDE = 100_000


def learn_small(seed, seconds, sizes=FULL, scratch_root=None):
    """Pipelines at training seeds seed, seed + stride, ... while the time
    lasts, at least `learn_min_pipelines`; the TV is the mean over that
    many."""
    out = Outcome()
    with _scratch_dir(scratch_root or default_scratch()) as work:
        # a pipeline takes seconds: it is its own window, with no warm-up
        meter = Meter(sizes, lambda: _learn_setup(seed, sizes, work),
                      warmup_s=0.0)
        times, tvs = [], []
        start = time.perf_counter()
        while len(times) < sizes.learn_min_pipelines or (
                time.perf_counter() - start + statistics.median(times)
                <= seconds):
            meter.between_ops()
            cfg_path, cfg = _learn_setup(
                seed + LEARN_SEED_STRIDE * len(times), sizes, work)
            pipe_dir = os.path.join(work, f"run{len(times)}")
            t0 = time.perf_counter()
            tv = _learn_op(out, cfg_path, cfg, pipe_dir, sizes.tv_gate)
            times.append(time.perf_counter() - t0)
            meter.op_done(times[-1], _learn_items(cfg))
            shutil.rmtree(pipe_dir, ignore_errors=True)
            if tv is None:
                break
            tvs.append(tv)
    quality = tvs[:sizes.learn_min_pipelines]
    mean_tv = (statistics.fmean(quality)
               if len(quality) == sizes.learn_min_pipelines else 1.0)
    out.metrics = meter.metrics(mean_tv)
    out.raw = meter.raw()
    return out


def _learn_items(cfg):
    """Work of one pipeline: training tuples plus eval samples."""
    trn = cfg.training
    return (trn["steps"] * trn["batch_size"] + cfg.eval["num_samples"]
            * len(runner.eval_n_values(cfg)) * cfg.env["width"]
            * cfg.env["height"])


def default_scratch():
    """A directory inside the checkout for the CLI's output files."""
    return os.path.join(ROOT, ".perfbench_tmp")


# -- traced runs ------------------------------------------------------------

def _no_span(name):
    return contextlib.nullcontext()


def _params_bytes(params):
    return b"".join(a.tobytes() for a in params.weights + params.biases)


def _train_pass(seed, sizes, out, span):
    state = _train_setup(seed, sizes)
    losses = []
    for step in range(sizes.trace_steps):
        with span("op.train_step"):
            stats = _train_op(state, step)
        out.op(math.isfinite(stats["loss"]))
        losses.append((stats["loss"], stats["l1_fraction"]))
    return losses, _params_bytes(state[3].online)


def _eval_pass(seed, sizes, out, span):
    state = _eval_setup(seed, sizes)
    rng = np.random.default_rng(state[0].eval["seed"])
    rows = []
    for cond in state[4][:sizes.trace_conditions]:
        with span("op.eval_condition"):
            row = _eval_op(state, cond, rng)
        out.op(_pmf_ok(row))
        rows.append(row)
    return rows


def _tree_bytes(root):
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def _learn_pass(seed, sizes, out, span, work):
    cfg_path, cfg = _learn_setup(seed, sizes, work)
    pipe_dir = tempfile.mkdtemp(dir=work)
    with span("op.learn_pipeline"):
        _learn_op(out, cfg_path, cfg, pipe_dir, sizes.tv_gate)
    files = _tree_bytes(pipe_dir)
    shutil.rmtree(pipe_dir, ignore_errors=True)
    return files


def traced_run(workload, seed, sizes=FULL, scratch_root=None):
    """The same fixed work three times at one seed: untraced, traced, and
    untraced again. Every pass must give identical outputs (for learn_small:
    every file the CLI writes, loss.csv and metrics.jsonl included). The
    tracing overhead is the traced pass's wall time minus the mean of the
    two untraced ones, which brackets it against warm-up and drift."""
    out = Outcome()
    with _scratch_dir(scratch_root or default_scratch()) as work:
        passes = {
            "train_headline": lambda span: _train_pass(seed, sizes, out, span),
            "eval_headline": lambda span: _eval_pass(seed, sizes, out, span),
            "learn_small": lambda span: _learn_pass(seed, sizes, out, span,
                                                    work),
        }
        run_pass = passes[workload]
        tracer = spans.Tracer()
        results, walls = [], []
        for traced in (False, True, False):
            with (spans.instrumented(tracer) if traced
                  else contextlib.nullcontext()):
                t0 = time.perf_counter()
                results.append(run_pass(tracer.span if traced else _no_span))
                walls.append(time.perf_counter() - t0)
    out.op(results[0] == results[1] == results[2])
    out.metrics = layer_metrics(tracer, (walls[0] + walls[2]) / 2, walls[1])
    return out, tracer


def layer_metrics(tracer, untraced_s, traced_s):
    totals = tracer.totals()
    metrics = {}
    for module, attr, _ in spans.TARGETS:
        name = spans.span_name(module, attr)
        calls, _, self_ns = totals.get(name, (0, 0, 0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_ns / 1e6, "ms")
    count = tracer.counts.get

    def ratio(num, den):
        return count(num, 0) / count(den) if count(den, 0) else 0.0

    mlp_ns = sum(totals.get(f"approximator.{f}", (0, 0, 0))[1]
                 for f in ("mlp_forward", "mlp_backward"))
    values = {
        "replay.l1_fraction": ratio("replay.l1_tuples", "replay.tuples"),
        "mdp.decode_clamped_frac": ratio("mdp.clamped", "mdp.decoded"),
        "evaluation.tv_n1": ratio("evaluation.tv_n1_sum",
                                  "evaluation.tv_n1_count"),
        "evaluation.mean_q_err": ratio("evaluation.q_err_sum",
                                       "evaluation.q_err_count"),
        # flop per ns is Gflop/s
        "approximator.gflops_per_s": (count("approximator.flops", 0) / mlp_ns
                                      if mlp_ns else 0.0),
        "trace.overhead_ms": 1e3 * (traced_s - untraced_s),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for name, unit, _ in _COUNTERS:
        metrics[name] = (values[name] if name in values else count(name, 0),
                         unit)
    return metrics


WORKLOADS = {
    "train_headline": train_headline,
    "eval_headline": eval_headline,
    "learn_small": learn_small,
}
