import inspect
import json
import pathlib
import re

import pytest

from ssm_diffusion.bellman_loss import make_trainer
from ssm_diffusion.config import (MAX_SIDE, MAX_SIZE, _SECTIONS,
                                  config_digest, load_config, validate_config)
from ssm_diffusion.errors import ConfigurationError


def minimal_raw(**overrides):
    raw = {
        "env": {"width": 3, "height": 3, "horizon": 4},
        "training": {"steps": 10, "seed": 0},
    }
    for section, vals in overrides.items():
        raw.setdefault(section, {}).update(vals)
    return raw


def test_defaults_applied():
    cfg = validate_config(minimal_raw())
    assert cfg.diffusion["K"] == 32
    assert cfg.training["batch_size"] == 128
    assert cfg.training["sync_period"] == 500
    assert cfg.env["p_move"] == 0.8


def test_missing_required_key_named():
    raw = minimal_raw()
    del raw["training"]["seed"]
    with pytest.raises(ConfigurationError, match="training.seed"):
        validate_config(raw)


def test_unknown_key_rejected():
    raw = minimal_raw()
    raw["training"]["warmup"] = 10
    with pytest.raises(ConfigurationError, match="warmup"):
        validate_config(raw)
    with pytest.raises(ConfigurationError, match="extra"):
        validate_config({**minimal_raw(), "extra": {}})
    # keys that earlier versions read
    for section, key in (("training", "condition_on"),
                         ("training", "sync_mode"), ("training", "tau"),
                         ("model", "horizon_encoding"),
                         ("model", "activation"), ("diffusion", "eta_mode"),
                         ("diffusion", "sigma_mode")):
        with pytest.raises(ConfigurationError, match=key):
            validate_config(minimal_raw(**{section: {key: "x"}}))


def test_range_checks():
    with pytest.raises(ConfigurationError):
        validate_config(minimal_raw(env={"p_move": 0.0}))
    with pytest.raises(ConfigurationError):
        validate_config(minimal_raw(diffusion={"beta_max": 1.0}))
    with pytest.raises(ConfigurationError):
        validate_config(minimal_raw(training={"optimizer": "rmsprop"}))
    with pytest.raises(ConfigurationError):
        validate_config(minimal_raw(eval={"eval_n": [0]}))


@pytest.mark.parametrize("section, values, named", [
    # the start, policy and reward specs of earlier versions, whatever
    # their values, are unknown keys: every run models the toward-goal
    # policy at the bottom-right corner, from uniform starts
    ("env", {"start": "foo"}, "'start'"),
    ("env", {"start": 9}, "'start'"),
    ("env", {"start": True}, "'start'"),
    ("env", {"policy": {"kind": "table", "table": [1.7] + [0] * 8}},
     "'policy'"),
    ("env", {"policy": {"kind": "table", "table": [4] + [0] * 8}},
     "'policy'"),
    ("env", {"policy": {"kind": "fixed_action", "action": True}}, "'policy'"),
    ("env", {"reward": {"kind": "goal", "cell": ["a", 0]}}, "'reward'"),
    ("env", {"reward": {"kind": "values", "values": ["a"] * 9}}, "'reward'"),
    ("env", {"reward": {"kind": "values", "values": [float("nan")] * 9}},
     "'reward'"),
    ("env", {"reward": {"kind": "goal", "cell": [1, 1], "extra": 3}},
     "'reward'"),
    ("env", {"reward": {"kind": "zero", "cell": [1, 1]}}, "'reward'"),
    ("env", {"reward": {"kind": "values", "values": [0] * 9,
                        "cell": [0, 0]}}, "'reward'"),
    ("env", {"policy": {"kind": "toward_goal", "cell": [1, 1],
                        "action": 2}}, "'policy'"),
    ("env", {"policy": {"kind": "fixed_action", "action": 2,
                        "table": [0] * 9}}, "'policy'"),
    ("env", {"policy": {"kind": "table", "table": [0] * 9, "extra": 1}},
     "'policy'"),
    ("eval", {"eval_n": [True]}, "eval.eval_n"),
    ("model", {"hidden_sizes": ["a"]}, "model.hidden_sizes"),
    ("model", {"hidden_sizes": [None]}, "model.hidden_sizes"),
    ("model", {"hidden_sizes": [1.5]}, "model.hidden_sizes"),
    ("model", {"hidden_sizes": [True]}, "model.hidden_sizes"),
    ("model", {"step_embed_dim": -3}, "model.step_embed_dim"),
    ("model", {"step_embed_dim": 0}, "model.step_embed_dim"),
    ("model", {"step_embed_dim": 1}, "model.step_embed_dim"),
    ("model", {"hidden_sizes": [MAX_SIZE, 1]}, "model.hidden_sizes"),
    ("training", {"lr": -1.0}, "training.lr"),
    ("training", {"lr": 0.0}, "training.lr"),
    ("training", {"sync_period": -1}, "training.sync_period"),
    # a target never copied from the online network: training against
    # a random network
    ("training", {"sync_period": 0}, "training.sync_period"),
    ("training", {"collect_every": -1}, "training.collect_every"),
    ("training", {"log_every": -1}, "training.log_every"),
    ("training", {"seed": -1}, "training.seed"),
    ("eval", {"seed": -1}, "eval.seed"),
    # Adam is the only optimizer
    ("training", {"optimizer": "sgd"}, "training.optimizer"),
    # rollouts beyond the capacity were collected, then evicted unread
    ("training", {"initial_trajectories": 11, "buffer_capacity": 10},
     "training.initial_trajectories"),
    ("training", {"initial_trajectories": 10**18},
     "training.initial_trajectories"),
    ("training", {"lr": float("inf")}, "training.lr"),
    ("training", {"lr": float("nan")}, "training.lr"),
    # a bool for a float key trained at lr 1.0
    ("training", {"lr": True}, "training.lr"),
    ("env", {"p_move": True}, "env.p_move"),
    ("diffusion", {"beta_max": False}, "diffusion.beta_max"),
    ("diffusion", {"beta_min": float("-inf")}, "diffusion.beta_min"),
], ids=["start-str", "start-out-of-range", "start-bool", "table-float",
        "table-out-of-range", "action-bool", "cell-str", "values-str",
        "reward-values-nan", "goal-extra-key", "zero-extra-key",
        "values-extra-key", "toward-goal-extra-key", "fixed-action-extra-key",
        "table-extra-key",
        "eval_n-bool", "hidden-str", "hidden-null", "hidden-float",
        "hidden-bool", "step-dim-negative", "step-dim-zero", "step-dim-one",
        "hidden-sum-above-max",
        "lr-negative", "lr-zero",
        "sync-period-negative", "sync-period-zero", "collect-every-negative",
        "log-every-negative", "training-seed-negative",
        "eval-seed-negative", "optimizer-sgd", "initial-above-capacity",
        "initial-huge", "lr-infinite", "lr-nan", "lr-bool",
        "p-move-bool", "beta-max-bool", "beta-min-infinite"])
def test_malformed_values_rejected(section, values, named):
    with pytest.raises(ConfigurationError, match=named):
        validate_config(minimal_raw(**{section: values}))


def test_boundary_values_accepted():
    cfg = validate_config(minimal_raw(
        env={"width": MAX_SIDE, "horizon": MAX_SIZE},
        diffusion={"K": MAX_SIZE},
        model={"step_embed_dim": 2, "hidden_sizes": [MAX_SIZE - 1, 1]},
        training={"sync_period": 1, "collect_every": 0, "log_every": 0,
                  "batch_size": MAX_SIZE, "buffer_capacity": MAX_SIZE},
        eval={"num_samples": MAX_SIZE}))
    assert cfg.model["step_embed_dim"] == 2 and cfg.diffusion["K"] == MAX_SIZE


def test_null_accepted_where_the_default_is_null():
    cfg = validate_config(minimal_raw(eval={"eval_n": None, "steps": None}))
    assert cfg.eval["eval_n"] is None and cfg.eval["steps"] is None
    assert validate_config(minimal_raw(eval={"steps": 32})).eval["steps"] == 32


def test_code_defaults_equal_config_defaults():
    # a keyword default that drifts from config's is used by every caller
    # that does not pass the value
    for fn, name, section, key in (
            (make_trainer, "hidden_sizes", "model", "hidden_sizes"),
            (make_trainer, "step_dim", "model", "step_embed_dim"),
            (make_trainer, "lr", "training", "lr"),
            (make_trainer, "sync_period", "training", "sync_period")):
        value = inspect.signature(fn).parameters[name].default
        want = _SECTIONS[section][key][0]
        assert (list(value) if isinstance(value, tuple) else value) == want, \
            name


def test_digest_stable_and_sensitive():
    a = config_digest(validate_config(minimal_raw()))
    b = config_digest(validate_config(minimal_raw()))
    assert a == b
    c = config_digest(validate_config(minimal_raw(training={"lr": 0.01})))
    assert c != a


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_raw()))
    cfg = load_config(path)
    assert cfg.env["width"] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_config(bad)
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "missing.json")


def test_readme_schema_names_every_key():
    # each section's row of README's schema table names its keys in
    # backticks; values in backticks are quoted or not identifiers
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", readme.read_text(),
                           re.MULTILINE))
    assert set(rows) == set(_SECTIONS)
    for section, keys in _SECTIONS.items():
        named = set(re.findall(r"`([A-Za-z_]\w*)`", rows[section]))
        assert named == set(keys), section
