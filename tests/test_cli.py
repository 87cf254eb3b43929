import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from ssm_diffusion import approximator as ap
from ssm_diffusion import cli, runner
from ssm_diffusion.checkpoint import load_checkpoint, save_checkpoint
from ssm_diffusion.config import _SECTIONS, config_digest, load_config

from test_checkpoint import VERSION_LINE, rewrite_header
from test_config import minimal_raw


def write_config(tmp_path, name="cfg.json", **overrides):
    raw = minimal_raw(**overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def tiny_overrides(steps=30):
    return {
        "env": {"width": 2, "height": 2, "horizon": 3},
        "diffusion": {"K": 4},
        "model": {"hidden_sizes": [8]},
        "training": {"steps": steps, "batch_size": 8, "log_every": 5,
                     "initial_trajectories": 20, "buffer_capacity": 50,
                     "collect_every": 10},
        "eval": {"num_samples": 50},
    }


def run(argv):
    return cli.main(argv)


def test_train_writes_outputs(tmp_path):
    cfg = write_config(tmp_path, **tiny_overrides())
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "loss.csv").exists()
    assert (out / "checkpoint.bin").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["steps"] == 30
    assert len(manifest["config_digest"]) == 64


def test_train_deterministic_loss_csv(tmp_path):
    cfg = write_config(tmp_path, **tiny_overrides())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["train", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()
    assert (out1 / "checkpoint.bin").read_bytes() == \
        (out2 / "checkpoint.bin").read_bytes()


def output_digests(tmp_path, name, over):
    """Runs train, eval and oracle on one config; returns the config's
    digest and, per output, the set of digests it holds."""
    cfg = write_config(tmp_path, f"{name}.json", **over)
    train, evl, oracle = (tmp_path / name / part
                          for part in ("train", "eval", "oracle"))
    assert run(["train", "--config", str(cfg), "--out", str(train)]) == 0
    assert run(["eval", "--checkpoint", str(train / "checkpoint.bin"),
                "--config", str(cfg), "--out", str(evl)]) == 0
    assert run(["oracle", "--config", str(cfg), "--out", str(oracle)]) == 0
    found = {}
    for path in (train / "loss.csv", evl / "metrics.csv",
                 oracle / "ssm_oracle.csv", oracle / "q_oracle.csv"):
        first = path.read_text().splitlines()[0]
        assert first.startswith("# config_digest="), path
        found[path.name] = {first.removeprefix("# config_digest=")}
    found["metrics.jsonl"] = {
        json.loads(line)["config_digest"]
        for line in (evl / "metrics.jsonl").read_text().splitlines()}
    found["manifest.json"] = {
        json.loads((train / "manifest.json").read_text())["config_digest"]}
    found["checkpoint.bin"] = {
        load_checkpoint(train / "checkpoint.bin").config_digest}
    return config_digest(load_config(cfg)), found


def test_every_output_names_its_config(tmp_path):
    # each seed is a config key, so a run's bytes follow from the config
    # its digest names
    base = tiny_overrides(steps=10)
    digest, found = output_digests(tmp_path, "base", base)
    assert len(found) == 7
    assert all(digests == {digest} for digests in found.values()), found
    for section in ("training", "eval"):
        over = tiny_overrides(steps=10)
        over[section]["seed"] = 5
        other, other_found = output_digests(tmp_path, section, over)
        assert other != digest
        assert all(digests == {other} for digests in other_found.values())


def test_train_zero_steps(tmp_path):
    cfg = write_config(tmp_path, **tiny_overrides(steps=0))
    out = tmp_path / "zero"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[1] == "step,loss,l1_fraction"
    assert len(lines) == 2  # digest comment + header, no data rows
    assert (out / "checkpoint.bin").exists()


def test_readme_usage_names_every_flag():
    # README's usage line of each subcommand names exactly its flags
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    usage = dict(re.findall(r"^ssm-diffusion (\w+) +(.*)$",
                            readme.read_text(), re.MULTILINE))
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert set(usage) == set(commands)
    for name, parser in commands.items():
        flags = {flag for action in parser._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[\w-]+", usage[name])) == flags, name


def test_missing_config_key_exit_2(tmp_path, capsys):
    raw = minimal_raw(**tiny_overrides())
    del raw["training"]["seed"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert run(["train", "--config", str(path),
                "--out", str(tmp_path / "x")]) == 2
    assert "training.seed" in capsys.readouterr().err


def test_malformed_config_value_exit_2_one_line(tmp_path, capsys):
    tiny = tiny_overrides()
    # sizes too large to allocate ended in an 18-24 line traceback and exit
    # 1; a bound on each size rejects them before anything is allocated
    oversized = [(section, {**tiny[section], key: value}, f"{section}.{key}")
                 for section, key, value in (
                     ("diffusion", "K", 1e30), ("diffusion", "K", 1e12),
                     ("training", "buffer_capacity", 1e30),
                     ("model", "step_embed_dim", 2**63),
                     ("env", "height", 1e30))]
    for section, values, named in oversized + [
            ("env", {**tiny["env"], "start": "foo"}, "'start'"),
            # a negative rate trained by gradient ascent and exited 0
            ("training", {**tiny["training"], "lr": -1.0}, "training.lr"),
            # JSON's Infinity stopped the run at step 1 with exit 1
            ("training", {**tiny["training"], "lr": float("inf")},
             "training.lr"),
            # an ignored key trained with exit 0 and moved the digest
            ("env", {**tiny["env"], "reward": {"kind": "goal",
                                               "cell": [1, 1], "extra": 3}},
             "'reward'"),
            # rollouts beyond the capacity were collected, then evicted
            # unread, with exit 0
            ("training", {**tiny["training"], "initial_trajectories": 51},
             "training.initial_trajectories"),
            # a key that earlier versions read: the eval horizons are fixed
            ("eval", {**tiny["eval"], "eval_n": [1]}, "'eval_n'")]:
        cfg = write_config(tmp_path, **{**tiny, section: values})
        for command in ("train", "oracle"):
            assert run([command, "--config", str(cfg),
                        "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and named in err
            assert not (tmp_path / "x").exists()


def test_out_of_memory_exit_1_one_line(tmp_path, capsys, monkeypatch):
    # a size within the config's bounds can still be too large for memory;
    # NumPy's MemoryError is raised here without allocating
    def refuse(cfg):
        raise MemoryError("Unable to allocate 8.00 TiB for an array with "
                          "shape (1099511627776,) and data type float64")
    monkeypatch.setattr(runner, "build_env", refuse)
    cfg = str(write_config(tmp_path, **tiny_overrides()))
    for command in ("train", "oracle"):
        assert run([command, "--config", cfg,
                    "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "8.00 TiB" in err


def null_or_non_object_configs():
    """(config, what its error names) for null in each typed key whose
    default is not null, and for each section set to a non-object."""
    for section, spec in _SECTIONS.items():
        for key, (default, _) in spec.items():
            if default is not None:
                raw = minimal_raw(**tiny_overrides())
                raw[section][key] = None
                yield raw, f"{section}.{key}"
        for value in (None, 0.5, [], ""):
            raw = minimal_raw(**tiny_overrides())
            raw[section] = value
            yield raw, f"'{section}'"


def test_null_value_or_section_exit_2_one_line(tmp_path, capsys):
    # each of these ended in a TypeError or AttributeError traceback
    cases = list(null_or_non_object_configs())
    assert len(cases) == 41
    for raw, named in cases:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert run(["train", "--config", str(path),
                    "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err
        assert not (tmp_path / "x").exists()


def test_bad_eval_steps_exit_2_one_line(tmp_path, capsys):
    tiny = tiny_overrides()
    for steps in (0, 5, True, 2.5):     # K is 4
        cfg = write_config(tmp_path, **{**tiny, "eval": {"steps": steps}})
        assert run(["train", "--config", str(cfg),
                    "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "eval.steps" in err
        assert not (tmp_path / "x").exists()


def test_eval_reports_its_step_count(tmp_path, capsys):
    cfg = write_config(tmp_path, **tiny_overrides())
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    ck = str(out / "checkpoint.bin")
    # null runs ceil(4 / 2) = 2 steps; the digest covers eval.steps
    for steps, ran in ((None, 2), (1, 1), (3, 3), (4, 4)):
        tiny = tiny_overrides()
        tiny["eval"]["steps"] = steps
        other = write_config(tmp_path, "other.json", **tiny)
        argv = ["eval", "--checkpoint", ck, "--config", str(other),
                "--out", str(tmp_path / f"e{steps}")]
        if steps is not None:
            assert run(argv) == 3
            argv.append("--override-digest")
        capsys.readouterr()
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith(f" steps={ran}\n")
        lines = (tmp_path / f"e{steps}" / "metrics.jsonl").read_text()
        summary = json.loads(lines.splitlines()[-1])
        assert summary["kind"] == "summary" and summary["steps"] == ran
        # stdout names every numeric field of the summary, in its order
        printed = [field.split("=") for field in out.split()]
        want = [("mean_tv", summary["mean_tv"])] + [
            (f"tv_n{n}", tv) for n, tv in summary["mean_tv_by_n"].items()] + [
            (key, summary[key])
            for key in ("max_tv", "mean_q_err", "max_q_err")]
        assert printed == [[key, f"{value:.4f}"] for key, value in want] + [
            ["steps", str(ran)]]


def test_out_of_range_generator_state_exit_1_one_line(tmp_path, capsys):
    # PCG64's state setter raised an OverflowError traceback
    cfg = str(write_config(tmp_path, **tiny_overrides(steps=0)))
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    good = (tmp_path / "run" / "checkpoint.bin").read_bytes()
    ck = tmp_path / "ck.bin"
    for change in (lambda rng: rng["state"].update(inc=-1),
                   lambda rng: rng.update(has_uint32=float("inf")),
                   lambda rng: rng.update(uinteger=1e30)):
        ck.write_bytes(good)
        rewrite_header(ck, lambda header: change(header["rng"]))
        for argv in (["train", "--config", cfg], ["eval", "--config", cfg]):
            out = tmp_path / "out"
            assert run(argv + ["--checkpoint", str(ck),
                               "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "field rng" in err
            assert not out.exists()


def test_unreadable_checkpoint_exit_1_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path, **tiny_overrides(steps=0))
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(VERSION_LINE + b"{not json\nEND\n")
    empty = tmp_path / "empty.bin"
    empty.write_bytes(VERSION_LINE + b"{}\nEND\n")
    assert run(["train", "--config", str(cfg),
                "--out", str(tmp_path / "run")]) == 0
    good = (tmp_path / "run" / "checkpoint.bin").read_bytes()
    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(good + bytes(700))
    old_version = tmp_path / "v2.bin"
    old_version.write_bytes(good.replace(VERSION_LINE,
                                         b"ssm-diffusion-checkpoint v2\n", 1))
    str_horizon = tmp_path / "run" / "checkpoint.bin"
    rewrite_header(str_horizon, lambda h: h.update(horizon="3"))
    for ck, says in ((tmp_path / "missing.bin", "cannot read"),
                     (corrupt, "corrupt checkpoint header"),
                     (empty, "config_digest missing or malformed"),
                     (str_horizon, "horizon missing or malformed"),
                     (trailing, "700 bytes after the last checkpoint block"),
                     (old_version, "unsupported checkpoint version line")):
        assert run(["eval", "--checkpoint", str(ck), "--config", str(cfg),
                    "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and says in err


def test_replay_not_fitting_config_exit_1_one_line(tmp_path, capsys):
    cfg = str(write_config(tmp_path, **tiny_overrides(steps=0)))
    resumed = tiny_overrides()
    resumed["training"]["collect_every"] = 0
    resume_cfg = str(write_config(tmp_path, "resume.json", **resumed))
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    ck = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
    rows, H = ck.replay, 3

    def with_replay(name, replay):
        ck.replay = replay
        save_checkpoint(tmp_path / name, ck)
        return tmp_path / name

    state, action = rows.copy(), rows.copy()
    state[0, H] = 99        # the first trajectory's last state
    action[0, H + 1] = 7    # and its first action
    probes = (
        (with_replay("state.bin", state),
         "replay state 99 out of range [0, 4)"),
        (with_replay("action.bin", action),
         "replay action 7 out of range [0, 4)"),
        # each trajectory one step shorter
        (with_replay("short.bin", np.c_[rows[:, :H], rows[:, H + 1:-1]]),
         "config's horizon 3"),
        (with_replay("empty.bin", rows[:0]), "replay holds no trajectories"))
    for path, says in probes:
        for argv in (["train", "--config", resume_cfg, "--override-digest"],
                     ["eval", "--config", cfg]):
            out = tmp_path / path.stem
            assert run(argv + ["--checkpoint", str(path),
                               "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and says in err
            assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "oracle"])
def test_out_naming_a_file_exit_1_one_line(tmp_path, capsys, command):
    cfg = str(write_config(tmp_path, **tiny_overrides(steps=0)))
    ck = str(tmp_path / "run" / "checkpoint.bin")
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    taken = tmp_path / "taken"
    taken.touch()
    argv = {"train": ["train", "--config", cfg],
            "eval": ["eval", "--checkpoint", ck, "--config", cfg],
            "oracle": ["oracle", "--config", cfg]}[command]
    assert run(argv + ["--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(taken) in err


def test_structural_mismatch_exit_3_despite_override(tmp_path, capsys):
    trained = tiny_overrides(steps=0)
    trained["diffusion"] = {"K": 32}
    trained["model"] = {"hidden_sizes": [8]}
    out = tmp_path / "run"
    assert run(["train", "--config",
                str(write_config(tmp_path, "k32.json", **trained)),
                "--out", str(out)]) == 0
    other = tiny_overrides()
    other["model"] = {"hidden_sizes": [16, 16]}
    cfg = str(write_config(tmp_path, "k4.json", **other))
    ck = str(out / "checkpoint.bin")
    for argv in (["eval", "--checkpoint", ck, "--config", cfg,
                  "--out", str(tmp_path / "e")],
                 ["train", "--checkpoint", ck, "--config", cfg,
                  "--out", str(tmp_path / "t")]):
        # the digest differs too, but the structure is checked first
        for flags in ([], ["--override-digest"]):
            assert run(argv + flags) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "digest" not in err
            assert "K 32 (config 4)" in err and "layer_sizes" in err
    assert not (tmp_path / "e").exists() and not (tmp_path / "t").exists()


def test_checkpoint_commands_build_one_trainer(tmp_path, monkeypatch):
    # the checkpoint is checked on the trainer it is restored into
    cfg = str(write_config(tmp_path, **tiny_overrides(steps=0)))
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    ck = str(tmp_path / "run" / "checkpoint.bin")
    builds, build_trainer = [], runner.build_trainer

    def counting_build_trainer(*args, **kwargs):
        builds.append(args)
        return build_trainer(*args, **kwargs)

    monkeypatch.setattr(runner, "build_trainer", counting_build_trainer)
    for command in ("eval", "train"):
        builds.clear()
        assert run([command, "--config", cfg, "--checkpoint", ck,
                    "--out", str(tmp_path / command)]) == 0
        assert len(builds) == 1, command


def test_resume_equivalence(tmp_path):
    over_full = tiny_overrides(steps=30)
    cfg = write_config(tmp_path, "full.json", **over_full)
    out_full = tmp_path / "full"
    assert run(["train", "--config", str(cfg), "--out", str(out_full)]) == 0

    # same config, stop at 15 then resume to 30
    over_half = tiny_overrides(steps=30)
    over_half["training"]["steps"] = 15
    cfg_half = write_config(tmp_path, "half.json", **over_half)
    out_half = tmp_path / "half"
    assert run(["train", "--config", str(cfg_half),
                "--out", str(out_half)]) == 0
    out_resumed = tmp_path / "resumed"
    assert run(["train", "--config", str(cfg), "--out", str(out_resumed),
                "--checkpoint", str(out_half / "checkpoint.bin"),
                "--override-digest"]) == 0

    full_rows = (out_full / "loss.csv").read_text().splitlines()[2:]
    half_rows = (out_half / "loss.csv").read_text().splitlines()[2:]
    resumed_rows = (out_resumed / "loss.csv").read_text().splitlines()[2:]
    assert half_rows + resumed_rows == full_rows
    assert (out_resumed / "checkpoint.bin").read_bytes() == \
        (out_full / "checkpoint.bin").read_bytes()


def test_resumed_run_trains_at_the_config_lr(tmp_path, monkeypatch):
    # the checkpoint holds no setting: the learning rate, like every other
    # one, is the config's it is resumed under
    over = tiny_overrides(steps=10)
    out = tmp_path / "run"
    assert run(["train", "--config", str(write_config(tmp_path, **over)),
                "--out", str(out)]) == 0
    over["training"].update(steps=20, lr=0.5)
    cfg = write_config(tmp_path, "lr.json", **over)
    lrs, opt_step = [], ap.opt_step

    def recording_opt_step(params, grads, state, scratch=None):
        lrs.append(state.lr)
        return opt_step(params, grads, state, scratch)

    monkeypatch.setattr(ap, "opt_step", recording_opt_step)
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "r"),
                "--checkpoint", str(out / "checkpoint.bin"),
                "--override-digest"]) == 0
    assert lrs == [0.5] * 10


def test_manifest_of_a_resumed_run_records_its_start(tmp_path):
    # a resumed run continues its checkpoint's generator, so no seed
    # describes it
    over = tiny_overrides(steps=10)
    out = tmp_path / "run"
    assert run(["train", "--config", str(write_config(tmp_path, **over)),
                "--out", str(out)]) == 0
    over["training"]["steps"] = 20
    resumed = tmp_path / "resumed"
    assert run(["train", "--config",
                str(write_config(tmp_path, "more.json", **over)),
                "--out", str(resumed), "--checkpoint",
                str(out / "checkpoint.bin"), "--override-digest"]) == 0
    manifest = json.loads((resumed / "manifest.json").read_text())
    assert manifest["steps"] == 20 and manifest["resumed_from_step"] == 10
    assert "seed" not in manifest


def test_eval_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path, **tiny_overrides())
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    ck = str(out / "checkpoint.bin")
    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    assert run(["eval", "--checkpoint", ck, "--config", str(cfg),
                "--out", str(e1)]) == 0
    assert run(["eval", "--checkpoint", ck, "--config", str(cfg),
                "--out", str(e2)]) == 0
    assert (e1 / "metrics.jsonl").read_bytes() == \
        (e2 / "metrics.jsonl").read_bytes()
    assert (e1 / "metrics.csv").exists()
    ppms = os.listdir(e1 / "heatmaps")
    assert ppms and all(p.endswith(".ppm") for p in ppms)
    first = (e1 / "heatmaps" / sorted(ppms)[0]).read_text().splitlines()
    assert first[0] == "P3"


def test_eval_same_bytes_on_one_or_two_blas_threads(tmp_path):
    # one BLAS thread on two CPUs gives two chain workers, two give one;
    # 1100 samples make three row blocks per chain
    overrides = tiny_overrides()
    overrides["eval"] = {"num_samples": 1100}
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    base = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    outputs = []
    for threads in ("1", "2"):
        e = tmp_path / f"eval{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from ssm_diffusion import cli; "
             "sys.exit(cli.main(sys.argv[1:]))", "eval", "--checkpoint",
             str(out / "checkpoint.bin"), "--config", str(cfg), "--out", str(e)],
            env=dict(base, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(e / name).read_bytes()
                        for name in ("metrics.jsonl", "metrics.csv")])
    assert outputs[0] == outputs[1]


def cli_process(*argv):
    """cli.main(argv) in a fresh process with one BLAS thread, so that
    stderr holds all the process prints, NumPy's warnings too (pytest
    would capture them)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from ssm_diffusion import cli; "
         "sys.exit(cli.main(sys.argv[1:]))", *argv],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=300)


def test_eval_of_overflowing_weights_prints_one_line(tmp_path):
    # the chain's matmuls overflow on both workers (1100 samples are three
    # row blocks), and stderr holds only the numeric error
    overrides = tiny_overrides()
    overrides["eval"] = {"num_samples": 1100}
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    ck = load_checkpoint(str(out / "checkpoint.bin"))
    ck.online.theta[...] = 1e200
    save_checkpoint(str(out / "checkpoint.bin"), ck)
    proc = cli_process("eval", "--checkpoint", str(out / "checkpoint.bin"),
                       "--config", str(cfg), "--out", str(tmp_path / "eval"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("numeric error: non-finite sample values")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_resumed_partial_checkpoint_fails_at_the_same_step(tmp_path):
    # at a learning rate of 1e300 the first Adam step takes the weights to
    # about 1e300, so the second step's loss overflows and training leaves
    # a partial checkpoint of the one finite step. Its resume, under the
    # same config, takes that step again on the next batch of the saved
    # generator and fails alike: exit 1, one line and a partial checkpoint
    # of the same step count and weights, with no other output
    overrides = tiny_overrides()
    overrides["training"]["lr"] = 1e300
    cfg = write_config(tmp_path, **overrides)
    run_dir, resumed_dir = tmp_path / "run", tmp_path / "resumed"
    partial = run_dir / "checkpoint.partial.bin"
    procs = [cli_process("train", "--config", str(cfg), "--out", str(run_dir)),
             cli_process("train", "--config", str(cfg), "--out",
                         str(resumed_dir), "--checkpoint", str(partial))]
    for proc in procs:
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            "numeric error: non-finite loss for batch row ")
        assert proc.stderr.count("\n") == 1, proc.stderr
    cks = [load_checkpoint(str(d / "checkpoint.partial.bin"))
           for d in (run_dir, resumed_dir)]
    assert [ck.step_count for ck in cks] == [1, 1]
    assert cks[0].online.theta.tobytes() == cks[1].online.theta.tobytes()
    for d in (run_dir, resumed_dir):
        assert os.listdir(d) == ["checkpoint.partial.bin"]


def test_eval_seed_flag_changes_samples_only(tmp_path):
    # another eval seed is another config, evaluated with --override-digest
    cfg = write_config(tmp_path, **tiny_overrides())
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    ck = str(out / "checkpoint.bin")
    records = []
    for seed in (7, 8):
        over = tiny_overrides()
        over["eval"]["seed"] = seed
        other = write_config(tmp_path, f"eval{seed}.json", **over)
        e = tmp_path / f"s{seed}"
        assert run(["eval", "--checkpoint", ck, "--config", str(other),
                    "--out", str(e), "--override-digest"]) == 0
        records.append([json.loads(l) for l in
                        (e / "metrics.jsonl").read_text().splitlines()])
    r1, r2 = records
    # oracle-derived q_exact identical, sampled estimates differ
    assert [r["q_exact"] for r in r1 if r["kind"] == "condition"] == \
        [r["q_exact"] for r in r2 if r["kind"] == "condition"]
    assert r1 != r2
    assert [r1[-1]["seed"], r2[-1]["seed"]] == [7, 8]


def test_manifest_records_the_seed_the_run_used(tmp_path):
    runs = {}
    for name, seed_in_config in (("default", 0), ("config", 77)):
        over = tiny_overrides(steps=10)
        over["training"]["seed"] = seed_in_config
        cfg = write_config(tmp_path, f"{name}.json", **over)
        out = tmp_path / name
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # the loss rows, without the digest line
        runs[name] = (manifest["seed"],
                      (out / "loss.csv").read_text().splitlines()[1:])
    assert runs["default"][0] == 0
    assert runs["config"][0] == 77 and runs["config"][1] != runs["default"][1]


def test_bad_seed_exit_2_one_line(tmp_path, capsys):
    tiny = tiny_overrides(steps=0)
    cfg = str(write_config(tmp_path, **tiny))
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    ck = str(tmp_path / "run" / "checkpoint.bin")
    neg_train = str(write_config(tmp_path, "t.json", **{
        **tiny, "training": {**tiny["training"], "seed": -1}}))
    neg_eval = str(write_config(tmp_path, "e.json", **{
        **tiny, "eval": {**tiny["eval"], "seed": -1}}))
    for argv, says in (
            (["train", "--config", neg_train], "training.seed must be >= 0"),
            (["eval", "--config", neg_eval, "--checkpoint", ck],
             "eval.seed must be >= 0")):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and says in err
        assert not out.exists()


def test_seed_flag_is_a_usage_error(tmp_path, capsys):
    # a run's seeds are its config's, which its digest names
    cfg = str(write_config(tmp_path, **tiny_overrides(steps=0)))
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    ck = str(tmp_path / "run" / "checkpoint.bin")
    capsys.readouterr()
    for argv in (["train", "--config", cfg],
                 ["train", "--config", cfg, "--checkpoint", ck],
                 ["eval", "--config", cfg, "--checkpoint", ck]):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out), "--seed", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not out.exists()


def test_eval_digest_mismatch_exit_3(tmp_path):
    cfg = write_config(tmp_path, **tiny_overrides())
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    over = tiny_overrides()
    over["training"]["lr"] = 0.01
    cfg2 = write_config(tmp_path, "other.json", **over)
    assert run(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                "--config", str(cfg2), "--out", str(tmp_path / "e")]) == 3
    assert run(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                "--config", str(cfg2), "--out", str(tmp_path / "e"),
                "--override-digest"]) == 0


def test_oracle_dump(tmp_path):
    cfg = write_config(tmp_path, **tiny_overrides())
    out = tmp_path / "oracle"
    assert run(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "ssm_oracle.csv").read_text().splitlines()
    assert lines[1] == "s,a,n,x,probability"
    rows = [l.split(",") for l in lines[2:]]
    # group by (s, a, n) and check normalization
    sums = {}
    for s, a, n, x, p in rows:
        sums[(s, a, n)] = sums.get((s, a, n), 0.0) + float(p)
    assert all(abs(v - 1.0) < 1e-9 for v in sums.values())
    qlines = (out / "q_oracle.csv").read_text().splitlines()
    assert qlines[1] == "s,a,n,q"


def test_oracle_one_cell_point_mass(tmp_path):
    over = tiny_overrides()
    over["env"] = {"width": 1, "height": 1, "horizon": 2}
    cfg = write_config(tmp_path, **over)
    out = tmp_path / "oracle"
    assert run(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "ssm_oracle.csv").read_text().splitlines()[2:]
    assert all(float(l.split(",")[4]) == 1.0 for l in lines)


def test_oracle_matches_matrix_power(tmp_path):
    from ssm_diffusion import oracle as orc
    from ssm_diffusion.config import load_config
    from ssm_diffusion.runner import build_env

    cfg_path = write_config(tmp_path, **tiny_overrides())
    out = tmp_path / "oracle"
    assert run(["oracle", "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    mdp, policy = build_env(cfg)
    ref = orc.ssm_matrix_power(mdp, policy, cfg.env["horizon"])
    lines = (out / "ssm_oracle.csv").read_text().splitlines()[2:]
    for line in lines:
        s, a, n, x, p = line.split(",")
        assert float(p) == pytest.approx(
            ref.d[int(s), int(a), int(n) - 1, int(x)], abs=1e-12)


def test_checkpoint_resave_byte_identical(tmp_path):
    from ssm_diffusion.checkpoint import load_checkpoint, save_checkpoint

    cfg = write_config(tmp_path, **tiny_overrides())
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    ck = load_checkpoint(out / "checkpoint.bin")
    save_checkpoint(tmp_path / "resaved.bin", ck)
    assert (tmp_path / "resaved.bin").read_bytes() == \
        (out / "checkpoint.bin").read_bytes()
