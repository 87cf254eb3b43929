"""Every script in demos/ runs at a tiny size in a process of its own and
exits cleanly."""

import os
import subprocess
import sys

import pytest

import ssm_diffusion

DEMOS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos")

# each demo's arguments; "{out}" is a fresh output directory
ARGS = {
    "unconditional_mixture": ["--steps", "50", "--samples", "500"],
    "oracle_gridworld": ["--width", "3", "--height", "3", "--n", "4",
                         "--rollouts", "2000"],
    "train_ssm": ["--steps", "20", "--out", "{out}"],
}


def test_every_demo_has_a_smoke_run():
    assert sorted(name[:-3] for name in os.listdir(DEMOS)
                  if name.endswith(".py")) == sorted(ARGS)


@pytest.mark.parametrize("name", sorted(ARGS))
def test_demo_runs(name, tmp_path):
    src = os.path.dirname(os.path.dirname(ssm_diffusion.__file__))
    args = [a.replace("{out}", str(tmp_path / "out")) for a in ARGS[name]]
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, f"{name}.py"), *args],
        env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
