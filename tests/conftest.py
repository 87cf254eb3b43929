"""Shared pytest plumbing: collects the acceptance-criterion result lines
so they are echoed in the terminal summary even though pytest captures
stdout during the tests themselves, and trains the headline run of
criteria 6 and 7 in a child process beside the rest of the suite."""

import json
import os
import subprocess
import sys

import pytest

import ssm_diffusion

acceptance_lines = []

# the headline configuration of criteria 6 and 7 (README's headline)
HEADLINE_RAW = {
    "env": {"width": 5, "height": 5, "p_move": 0.8, "horizon": 8},
    "diffusion": {"K": 32},
    "training": {"steps": 50_000, "seed": 1},
    "eval": {"num_samples": 10_000, "seed": 11},
}

HEADLINE_CRITERIA = ("test_criterion_6_end_to_end_ssm",
                     "test_criterion_7_q_estimation")


def pytest_collection_modifyitems(items):
    """Run criteria 6 and 7 last, so that every other test runs while the
    child process trains their headline network."""
    items.sort(key=lambda item: item.name in HEADLINE_CRITERIA)


@pytest.fixture(scope="session", autouse=True)
def headline_training(request, tmp_path_factory):
    """The headline `cli train` process, started before the first test
    when criterion 6 or 7 is selected, with one BLAS thread, so that the
    serial train loop takes the second core; None when neither is
    selected. Yields (process, its --out directory, its stderr file), and
    terminates and reaps the process at the end of the session."""
    if not any(item.name in HEADLINE_CRITERIA
               for item in request.session.items):
        yield None
        return
    base = tmp_path_factory.mktemp("headline")
    config = base / "config.json"
    config.write_text(json.dumps(HEADLINE_RAW))
    src = os.path.dirname(os.path.dirname(ssm_diffusion.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    stderr = base / "stderr.txt"
    with open(stderr, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "ssm_diffusion.cli", "train",
             "--config", str(config), "--out", str(base / "train")],
            env=env, stdout=subprocess.DEVNULL, stderr=err)
    try:
        yield proc, base / "train", stderr
    finally:
        if proc.poll() is None:
            proc.terminate()
        proc.wait()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
