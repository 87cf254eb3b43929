import json
import pathlib
import re

import numpy as np
import pytest

from ssm_diffusion import approximator as ap
from ssm_diffusion import bellman_loss as bl
from ssm_diffusion import checkpoint
from ssm_diffusion import mdp as m
from ssm_diffusion.checkpoint import load_checkpoint, save_checkpoint
from ssm_diffusion.config import validate_config
from ssm_diffusion.errors import FormatError, NumericError
from ssm_diffusion.replay import ReplayBuffer
from ssm_diffusion.runner import (build_env, build_trainer, make_checkpoint,
                                  restore_trainer)

from test_config import minimal_raw

VERSION_LINE = f"ssm-diffusion-checkpoint v{checkpoint.FORMAT_VERSION}\n" \
    .encode()


def make_ck():
    cfg = validate_config(minimal_raw(training={"steps": 10, "seed": 0}))
    mdp, policy = build_env(cfg)
    trainer = build_trainer(cfg)
    buf = ReplayBuffer(mdp, policy, 10)
    rng = np.random.default_rng(3)
    for _ in range(4):
        buf.push_trajectory(m.rollout(mdp, policy, rng))
    return cfg, make_checkpoint(cfg, trainer, buf, rng)


def test_roundtrip_bit_exact(tmp_path):
    _, ck = make_ck()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, ck)
    loaded = load_checkpoint(p1)
    save_checkpoint(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    head, body = p1.read_bytes().split(b"\nEND\n", 1)
    header = json.loads(head.split(b"\n", 1)[1])
    # training's state only: every setting comes from the config
    assert sorted(header) == ["config_digest", "horizon", "n_trajectories",
                              "rng", "step_count", "structure"]
    assert sorted(header["structure"]) == ["K", "beta_max", "beta_min",
                                           "layer_sizes", "n_max", "step_dim"]
    # online and target parameters, then Adam's two moment vectors
    n_params = ap.param_count(ck.online.layer_sizes)
    assert len(body) == 8 * (4 * n_params + ck.replay.size)
    for a, b in ((ck.online, loaded.online), (ck.target, loaded.target)):
        assert a.theta.tobytes() == b.theta.tobytes()
        assert b.layer_sizes == a.layer_sizes
    assert loaded.m.size == loaded.v.size == n_params
    assert loaded.step_count == ck.step_count
    assert loaded.rng_state == ck.rng_state
    assert loaded.replay.dtype == np.int64
    np.testing.assert_array_equal(loaded.replay, ck.replay)


def test_truncated_file_raises(tmp_path):
    _, ck = make_ck()
    path = tmp_path / "ck.bin"
    save_checkpoint(path, ck)
    blob = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(blob[:-100])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(tmp_path / "cut.bin")


def test_trailing_bytes_raise(tmp_path):
    _, ck = make_ck()
    path = tmp_path / "ck.bin"
    save_checkpoint(path, ck)
    path.write_bytes(path.read_bytes() + bytes(700))
    with pytest.raises(FormatError, match="700 bytes after the last"):
        load_checkpoint(path)


def test_bad_version_line_raises(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"something-else v9\n{}\nEND\n")
    with pytest.raises(FormatError):
        load_checkpoint(path)
    path.write_bytes(b"no header at all")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_unreadable_file_raises(tmp_path):
    with pytest.raises(FormatError, match="cannot read"):
        load_checkpoint(tmp_path / "missing.bin")
    path = tmp_path / "corrupt.bin"
    for header in (b"{not json", b"\xff\xfe", b""):
        path.write_bytes(VERSION_LINE + header + b"\nEND\n")
        with pytest.raises(FormatError, match="corrupt checkpoint header"):
            load_checkpoint(path)


def rewrite_header(path, change):
    """Apply change() to the JSON header of the checkpoint at path."""
    version, rest = path.read_bytes().split(b"\n", 1)
    head, body = rest.split(b"\nEND\n", 1)
    header = json.loads(head)
    change(header)
    path.write_bytes(version + b"\n" + json.dumps(header).encode()
                     + b"\nEND\n" + body)


def test_empty_header_raises(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(VERSION_LINE + b"{}\nEND\n")
    with pytest.raises(FormatError, match="config_digest missing"):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value", [
    ("horizon", "8"), ("horizon", -1), ("n_trajectories", None),
    ("structure.layer_sizes", [18, 1.5, 2]), ("step_count", True),
    ("step_count", -1), ("step_count", 1.5), ("rng", {}),
    ("config_digest", 7)])
def test_malformed_header_field_raises(tmp_path, field, value):
    def change(header):
        *sections, key = field.split(".")
        for section in sections:
            header = header[section]
        header[key] = value
    path = tmp_path / "ck.bin"
    save_checkpoint(path, make_ck()[1])
    rewrite_header(path, change)
    with pytest.raises(FormatError, match=f"{field} missing or malformed"):
        load_checkpoint(path)


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    _, ck = make_ck()
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, ck)
    before = path.read_bytes()

    class DiskFullAfterOneWrite:
        """A file whose second write fails after writing half its data."""

        def __init__(self, name, mode):
            self.fh = open(name, mode)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                self.fh.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")
            self.fh.write(data)

    monkeypatch.setattr(checkpoint, "open", DiskFullAfterOneWrite,
                        raising=False)
    ck.online.weights[0] += 1.0
    with pytest.raises(OSError):
        save_checkpoint(path, ck)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path).config_digest == ck.config_digest
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]


def test_restores_optimizer_moments(tmp_path):
    cfg, ck = make_ck()
    path = tmp_path / "ck.bin"
    # make moments nonzero so the roundtrip is meaningful
    ck.m += 0.25
    ck.v += 0.5
    ck.step_count = 7
    save_checkpoint(path, ck)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.m, ck.m)
    np.testing.assert_array_equal(loaded.v, ck.v)
    assert loaded.step_count == 7
    # Adam's step count, the one the trainer reads, drives the bias
    # correction; the learning rate is the config's
    trainer = restore_trainer(cfg, loaded)
    np.testing.assert_array_equal(trainer.opt.m, ck.m)
    np.testing.assert_array_equal(trainer.opt.v, ck.v)
    assert trainer.opt.step_count == 7
    assert trainer.opt.lr == cfg.training["lr"]


def test_partial_checkpoint_counts_the_failed_step():
    # an optimizer step that ends in non-finite parameters has already
    # folded its gradient into Adam's moments and counted it, so the
    # checkpoint written after it holds the last finite parameters with
    # those moments and a step count that agrees with them: a resume then
    # takes the bias correction of the step after the failed one
    cfg = validate_config(minimal_raw(training={"steps": 10, "seed": 0}))
    mdp, policy = build_env(cfg)
    trainer = build_trainer(cfg)
    buf = ReplayBuffer(mdp, policy, 10)
    rng = np.random.default_rng(3)
    for _ in range(4):
        buf.push_trajectory(m.rollout(mdp, policy, rng))
    for _ in range(5):
        bl.train_step(trainer, [buf.sample_tuple(rng) for _ in range(8)], rng)
    trainer.online.theta[...] *= 1e50
    trainer.opt.lr = 1e100
    last_finite = trainer.online.theta.copy()
    m_before = trainer.opt.m.copy()
    with np.errstate(all="ignore"), \
            pytest.raises(NumericError, match="after optimizer step"):
        bl.train_step(trainer, [buf.sample_tuple(rng) for _ in range(8)], rng)
    ck = make_checkpoint(cfg, trainer, buf, rng)
    # six calls, each of which updated Adam's moments
    assert ck.step_count == 6
    assert ck.online.theta.tobytes() == last_finite.tobytes()
    assert not np.array_equal(ck.m, m_before)


def test_readme_names_every_header_key(tmp_path):
    # README's checkpoint paragraph names, in backticks, each key of the
    # header and of its structure section, and no other name
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    version, paragraph = re.search(
        r"A checkpoint\s+\(format v(\d+)\)(.*?)\n- ", readme,
        re.DOTALL).groups()
    assert int(version) == checkpoint.FORMAT_VERSION
    path = tmp_path / "ck.bin"
    save_checkpoint(path, make_ck()[1])
    head = path.read_bytes().split(b"\nEND\n", 1)[0]
    header = json.loads(head.split(b"\n", 1)[1])
    assert set(re.findall(r"`(\w+)`", paragraph)) == \
        set(header) | set(header["structure"])
