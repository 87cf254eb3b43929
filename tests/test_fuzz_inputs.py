"""Fuzz the CLI's inputs: mutated JSON values of a 2x2 config and of a
checkpoint header, and mutated bytes of a checkpoint body. Every run of
`train`, `eval` and `oracle` must exit with a documented code and at most
one line on stderr, and never raise."""

import contextlib
import copy
import io
import json
import pathlib
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssm_diffusion import cli
from ssm_diffusion.config import _SECTIONS

SETTINGS = settings(derandomize=True, deadline=2000, max_examples=25,
                    database=None)

# every size is small, so a mutation that keeps the config valid still runs
# in milliseconds
TINY = {
    "env": {"width": 2, "height": 2, "horizon": 3},
    "diffusion": {"K": 4},
    "model": {"hidden_sizes": [8]},
    "training": {"steps": 3, "seed": 0, "batch_size": 4, "log_every": 1,
                 "initial_trajectories": 4, "buffer_capacity": 8,
                 "collect_every": 2},
    "eval": {"num_samples": 20},
}

# keys that earlier versions read
OLD_KEYS = [("model", "activation"), ("diffusion", "eta_mode"),
            ("diffusion", "sigma_mode"), ("env", "reward"), ("env", "policy"),
            ("env", "start"), ("eval", "eval_n")]
CONFIG_KEYS = [(section, key) for section, spec in _SECTIONS.items()
               for key in spec] + OLD_KEYS

# ints stay within 4 unless they exceed every size bound
ints = st.one_of(st.integers(-2, 4), st.sampled_from([2**20 + 1, 2**63,
                                                      10**30]))
floats = st.one_of(st.floats(-2.0, 2.0),
                   st.sampled_from([float("inf"), float("nan"), 1e300]))
strings = st.sampled_from(["", "x", "adam", "sgd", "relu", "tanh", "simple",
                           "paper", "beta", "posterior", "uniform", "goal",
                           "zero", "values", "toward_goal", "fixed_action",
                           "table"])
scalars = st.one_of(st.none(), st.booleans(), ints, floats, strings)
json_values = st.one_of(
    scalars, st.lists(st.one_of(ints, floats), max_size=4),
    st.dictionaries(st.sampled_from(["kind", "cell", "action", "table",
                                     "values"]),
                    st.one_of(scalars, st.lists(ints, max_size=4)),
                    max_size=3))

DOCUMENTED = {0, 1, 2, 3}


def run(argv):
    """(exit code, stderr, warnings) of cli.main(argv), with stdout
    discarded: warnings holds the message of every warning the call
    raised, each of which a CLI process would print to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


def assert_documented(argv, codes=DOCUMENTED):
    code, err, raised = run(argv)
    assert code in codes, (argv, code, err)
    assert err.count("\n") <= 1, err
    assert (code == 0) == (err == ""), err
    assert raised == [], raised
    return code


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A valid config file and the checkpoint its training wrote."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    assert run(["train", "--config", str(cfg), "--out",
                str(root / "run")]) == (0, "", [])
    return cfg, (root / "run" / "checkpoint.bin").read_bytes()


@st.composite
def mutated_configs(draw):
    """TINY with one to three keys set to arbitrary JSON values or
    removed."""
    raw = copy.deepcopy(TINY)
    for _ in range(draw(st.integers(1, 3))):
        section, key = draw(st.sampled_from(CONFIG_KEYS))
        if draw(st.booleans()):
            raw.setdefault(section, {}).pop(key, None)
        else:
            raw.setdefault(section, {})[key] = draw(json_values)
    return raw


def header_paths(value, prefix=()):
    """The path of every leaf of a parsed JSON header."""
    if isinstance(value, dict) and value:
        for key, child in value.items():
            yield from header_paths(child, prefix + (key,))
    else:
        yield prefix


def split_checkpoint(blob):
    version, rest = blob.split(b"\n", 1)
    head, body = rest.split(b"\nEND\n", 1)
    return version, json.loads(head), body


def join_checkpoint(version, header, body):
    return version + b"\n" + json.dumps(header).encode() + b"\nEND\n" + body


_REMOVE = object()


def set_path(header, path, value):
    for key in path[:-1]:
        header = header[key]
    if value is _REMOVE:
        del header[path[-1]]
    else:
        header[path[-1]] = value


def run_checkpoint(cfg, blob, override):
    """eval and a resumed train on the checkpoint bytes blob; returns their
    exit codes."""
    with tempfile.TemporaryDirectory() as tmp:
        ck = pathlib.Path(tmp) / "ck.bin"
        ck.write_bytes(blob)
        flags = ["--override-digest"] if override else []
        return [assert_documented(
            [command, "--config", str(cfg), "--checkpoint", str(ck),
             "--out", str(pathlib.Path(tmp) / command)] + flags,
            codes={0, 1, 3}) for command in ("eval", "train")]


@SETTINGS
@given(mutated_configs())
@example({**TINY, "model": {"hidden_sizes": [8], "activation": "relu"}})
@example({**TINY, "diffusion": {"K": 4, "eta_mode": "simple"}})
@example({**TINY, "diffusion": {"K": 4, "sigma_mode": "beta"}})
@example({**TINY, "training": {**TINY["training"], "optimizer": "sgd"}})
def test_mutated_config(raw):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        codes = {assert_documented([command, "--config", str(cfg), "--out",
                                    str(pathlib.Path(tmp) / command)])
                 for command in ("train", "oracle")}
        # train and oracle validate a config alike
        assert codes <= {0, 1} or codes == {2}
        if any(key in raw[section] for section, key in OLD_KEYS):
            assert codes == {2}
        if raw["training"].get("optimizer", "adam") != "adam":
            assert codes == {2}


@SETTINGS
@given(data=st.data())
def test_mutated_checkpoint_header(trained, data):
    cfg, blob = trained
    version, header, body = split_checkpoint(blob)
    path = data.draw(st.sampled_from(sorted(header_paths(header))))
    set_path(header, path, data.draw(st.one_of(st.just(_REMOVE),
                                               json_values)))
    run_checkpoint(cfg, join_checkpoint(version, header, body),
                   data.draw(st.booleans()))


@SETTINGS
@given(data=st.data())
def test_mutated_checkpoint_body(trained, data):
    cfg, blob = trained
    version, header, body = split_checkpoint(blob)
    body = bytearray(body)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(body) - 1))
        body[at] = data.draw(st.integers(0, 255))
    cut = data.draw(st.sampled_from([None, -1, -8, 8]))
    if cut is not None:
        body = body[:cut] if cut < 0 else body + bytes(cut)
    run_checkpoint(cfg, join_checkpoint(version, header, bytes(body)),
                   data.draw(st.booleans()))


@pytest.mark.parametrize("path, value", [
    (("opt", "optimizer"), "sgd"),
    (("structure", "activation"), "tanh")], ids=["sgd", "tanh"])
def test_refused_checkpoint_of_another_recipe(trained, path, value):
    # only a v3 file could hold an SGD or a tanh network; v4 takes both
    # settings from the config, and the v3 version line refuses the file
    # before any field is read
    cfg, blob = trained
    _, header, body = split_checkpoint(blob)
    header.setdefault(path[0], {})[path[1]] = value
    old = join_checkpoint(b"ssm-diffusion-checkpoint v3", header, body)
    for override in (False, True):
        assert run_checkpoint(cfg, old, override) == [1, 1]
