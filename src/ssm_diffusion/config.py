"""Experiment configuration: a single JSON file with sections mirroring the
modules. Every field is validated up front and unknown keys are rejected;
the normalized config (defaults applied) is hashed into a digest carried by
every output file.
"""

import hashlib
import json
import math
from dataclasses import dataclass

from .errors import ConfigurationError


@dataclass
class ExperimentConfig:
    env: dict
    diffusion: dict
    model: dict
    training: dict
    eval: dict


_REQUIRED = object()

# Each size's range. The upper bounds lie far above what fits in memory, yet
# low enough that no array they shape reaches 2**63 bytes (the largest, the
# exact table, takes 32 S^2 H bytes for S = width * height states). So no
# size computation of NumPy's or Python's overflows, and a run too large for
# memory fails with a MemoryError, which the CLI reports in one line.
MAX_SIDE, MAX_SIZE = 2**8, 2**20
_SIZE_RANGES = {
    ("env", "width"): (1, MAX_SIDE),
    ("env", "height"): (1, MAX_SIDE),
    ("env", "horizon"): (1, MAX_SIZE),
    ("diffusion", "K"): (1, MAX_SIZE),
    # below 2 the sinusoidal step embedding is all zeros
    ("model", "step_embed_dim"): (2, MAX_SIZE),
    ("training", "batch_size"): (1, MAX_SIZE),
    ("training", "buffer_capacity"): (1, MAX_SIZE),
    ("eval", "num_samples"): (1, MAX_SIZE),
}

_SECTIONS = {
    "env": {
        "width": (_REQUIRED, int),
        "height": (_REQUIRED, int),
        "p_move": (0.8, float),
        "horizon": (_REQUIRED, int),
    },
    "diffusion": {
        "K": (32, int),
        "beta_min": (1e-4, float),
        "beta_max": (0.2, float),
    },
    "model": {
        "hidden_sizes": ([128, 128], list),
        "step_embed_dim": (8, int),
    },
    "training": {
        "steps": (_REQUIRED, int),
        "batch_size": (128, int),
        "lr": (1e-3, float),
        # always Adam; kept so that configs naming it still load
        "optimizer": ("adam", str),
        "sync_period": (500, int),
        "seed": (_REQUIRED, int),
        "buffer_capacity": (1000, int),
        "initial_trajectories": (500, int),
        "collect_every": (10, int),
        "log_every": (100, int),
    },
    "eval": {
        "num_samples": (10000, int),
        "eval_n": (None, None),   # None -> {1, horizon/2, horizon}
        "seed": (0, int),
        "steps": (None, int),     # reverse-chain steps; None -> ceil(K/2)
    },
}


def _validate_section(name, raw):
    if not isinstance(raw, dict):
        raise ConfigurationError(f"section '{name}' must be a JSON object, "
                                 f"got {type(raw).__name__}")
    spec = _SECTIONS[name]
    unknown = set(raw) - set(spec)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in section '{name}': {sorted(unknown)}")
    out = {}
    for key, (default, typ) in spec.items():
        if key not in raw and default is _REQUIRED:
            raise ConfigurationError(f"missing required key '{name}.{key}'")
        val = raw.get(key, default)
        if val is None and default is None:   # null only where it is the default
            out[key] = val
            continue
        if typ in (int, float) and isinstance(val, bool):
            raise ConfigurationError(
                f"{name}.{key}: expected {typ.__name__}, got bool")
        if typ is int and isinstance(val, float) and val.is_integer():
            val = int(val)
        if typ is float and isinstance(val, int):
            val = float(val)
        if typ is not None and not isinstance(val, typ):
            raise ConfigurationError(
                f"{name}.{key}: expected {typ.__name__}, got {type(val).__name__}")
        if typ is float and not math.isfinite(val):   # JSON's Infinity, NaN
            raise ConfigurationError(f"{name}.{key} must be finite, got {val}")
        out[key] = val
    return out


def _ints_in(values, lo, hi):
    """True for a non-empty list of ints (bools excluded) in [lo, hi)."""
    return (isinstance(values, list) and bool(values)
            and all(isinstance(v, int) and not isinstance(v, bool)
                    and lo <= v < hi for v in values))


def validate_config(raw):
    """Apply defaults and check types/ranges; returns an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigurationError(f"unknown section(s): {sorted(unknown)}")
    sections = {name: _validate_section(name, raw.get(name, {}))
                for name in _SECTIONS}
    env, dif, mdl, trn, evl = (sections[k] for k in
                               ("env", "diffusion", "model", "training", "eval"))
    for (name, key), (lo, hi) in _SIZE_RANGES.items():
        if not lo <= sections[name][key] <= hi:
            raise ConfigurationError(f"{name}.{key} must be in [{lo}, {hi}], "
                                     f"got {sections[name][key]}")
    if not 0.0 < env["p_move"] <= 1.0:
        raise ConfigurationError(f"env.p_move must be in (0, 1], got {env['p_move']}")
    if not 0.0 < dif["beta_min"] <= dif["beta_max"] < 1.0:
        raise ConfigurationError("diffusion: need 0 < beta_min <= beta_max < 1")
    if not (_ints_in(mdl["hidden_sizes"], 1, float("inf"))
            and sum(mdl["hidden_sizes"]) <= MAX_SIZE):
        raise ConfigurationError(
            "model.hidden_sizes must be a non-empty list of positive ints "
            f"summing to at most {MAX_SIZE}, got {mdl['hidden_sizes']}")
    if not trn["lr"] > 0.0:
        raise ConfigurationError(f"training.lr must be > 0, got {trn['lr']}")
    if trn["sync_period"] < 1:
        raise ConfigurationError(
            f"training.sync_period must be >= 1, got {trn['sync_period']}")
    for key in ("collect_every", "log_every"):
        if trn[key] < 0:
            raise ConfigurationError(
                f"training.{key} must be >= 0 (0 is off), got {trn[key]}")
    if trn["optimizer"] != "adam":
        raise ConfigurationError(f"training.optimizer must be \"adam\", "
                                 f"got {trn['optimizer']!r}")
    if trn["steps"] < 0:
        raise ConfigurationError("training.steps must be >= 0")
    for name, sec in (("training", trn), ("eval", evl)):
        if sec["seed"] < 0:   # numpy's generators take none
            raise ConfigurationError(f"{name}.seed must be >= 0, got {sec['seed']}")
    if not 1 <= trn["initial_trajectories"] <= trn["buffer_capacity"]:
        raise ConfigurationError(
            "training.initial_trajectories must be in [1, "
            f"training.buffer_capacity], got {trn['initial_trajectories']}")
    if evl["eval_n"] is not None and not _ints_in(evl["eval_n"], 1,
                                                  env["horizon"] + 1):
        raise ConfigurationError(
            f"eval.eval_n must be ints in [1, horizon], got {evl['eval_n']}")
    if evl["steps"] is not None and not 1 <= evl["steps"] <= dif["K"]:
        raise ConfigurationError(f"eval.steps must be null or an int in "
                                 f"[1, diffusion.K], got {evl['steps']}")
    return ExperimentConfig(env=env, diffusion=dif, model=mdl, training=trn,
                            eval=evl)


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


def config_digest(cfg):
    """Stable sha256 over the normalized config."""
    payload = {"env": cfg.env, "diffusion": cfg.diffusion, "model": cfg.model,
               "training": cfg.training, "eval": cfg.eval}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
