"""Tests of the benchmark itself: span arithmetic, wrapper restoration, the
output contract, and a seconds-long run of every workload."""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), BENCH)
                if p not in sys.path]

import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Advances by a fixed step on every read."""

    def __init__(self, step=10):
        self.now, self.step = 0, step

    def __call__(self):
        self.now += self.step
        return self.now


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def tick(n):
        clock.now += n

    inner = tracer.wrap("inner", tick)

    def outer_body():
        clock.now += 100
        inner(40)
        inner(40)

    outer = tracer.wrap("outer", outer_body)
    with tracer.span("op"):
        outer()
    calls, total, self_ns = tracer.agg[("inner", "outer")]
    # each inner call: one clock step to stop plus its 40
    assert (calls, total, self_ns) == (2, 100, 100)
    calls, total, self_ns = tracer.agg[("outer", "op")]
    # 100 of body, two inner calls of 50 each plus 2 clock steps each to
    # start them, one clock step to stop
    assert total == 100 + 2 * (50 + 10) + 10
    assert self_ns == total - 100
    op_total = tracer.agg[("op", None)][1]
    assert tracer.agg[("op", None)][2] == op_total - total
    assert tracer.totals()["inner"] == (2, 100, 100)
    span = tracer.spans[0]
    assert span[1] == "op" and span[2] is None and span[4] - span[3] == op_total


def test_hook_time_is_charged_to_no_layer():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def slow_hook(tr, args, kwargs, result):
        clock.now += 1000
        tr.add("seen", result)

    leaf = tracer.wrap("leaf", lambda: 7, hook=slow_hook)
    outer = tracer.wrap("outer", lambda: leaf())
    outer()
    _, total, self_ns = tracer.agg[("outer", None)]
    leaf_total = tracer.agg[("leaf", "outer")][1]
    assert tracer.counts == {"seen": 7}
    assert total >= leaf_total + 1000
    assert self_ns == total - leaf_total - 1000 - 10


class FixedGauge:
    """A host that always runs at half the quiet host's speed."""

    def factor(self, reps=1):
        return 2.0


def test_meter_corrects_windows_and_setups_by_the_host_factor():
    sizes = workloads.Sizes(setup_reps=2, setup_every_s=60.0, warmup_s=1.0,
                            window_s=0.5)
    builds = []
    meter = workloads.Meter(sizes, lambda: builds.append(1) or len(builds),
                            gauge=FixedGauge())
    assert meter.state == 1 and len(meter.setups) == 2
    meter.op_done(1.0, 10)                # warm-up: not measured
    for seconds in (0.25,) * 2 + (0.5,) * 4:
        meter.op_done(seconds, 100)       # 400/s, then four at 200/s
    meter.op_done(0.1, 5)                 # an unfinished window is dropped
    assert [r for r, _ in meter.rates] == [400.0] + [200.0] * 4
    metrics = meter.metrics(0.5)
    assert metrics["items_per_s"] == (400.0, "1/s")
    setups = [s for s, _ in meter.setups]
    assert metrics["setup_s"][0] == statistics.median(setups) / 2.0 > 0
    assert meter.raw() == {"setup_s": statistics.median(setups),
                           "items_per_s": 200.0, "host_factor": 2.0}


@pytest.mark.parametrize("tv, ok", [(1.0 + 2e-16, True), (0.0, True),
                                     (1.01, False), (float("nan"), False)])
def test_pmf_check_allows_only_rounding(tv, ok):
    row = {"pmf": [0.25, 0.75], "tv": tv, "q_est": 0.5}
    assert workloads._pmf_ok(row) is ok


def _bindings():
    """Every place a target is bound, with the object bound there."""
    found = {}
    for module, attr, _ in spans.TARGETS:
        if "." in attr:
            cls, meth = attr.split(".")
            owner = getattr(sys.modules[f"ssm_diffusion.{module}"], cls)
            found[(id(owner), meth)] = owner.__dict__[meth]
            continue
        orig = getattr(sys.modules[f"ssm_diffusion.{module}"], attr)
        for m in spans._package_modules():
            for key, value in vars(m).items():
                if value is orig:
                    found[(m.__name__, key)] = value
    return found


def test_wrappers_installed_then_restored(tmp_path):
    before = _bindings()
    # diffusion binds mlp_forward at import; evaluation binds decode_states
    assert ("ssm_diffusion.diffusion", "mlp_forward") in before
    assert ("ssm_diffusion.evaluation", "decode_states") in before
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        import ssm_diffusion.diffusion as df
        assert df.mlp_forward is not before[("ssm_diffusion.diffusion",
                                              "mlp_forward")]
    out, _ = workloads.traced_run("train_headline", 1, workloads.TINY,
                                  scratch_root=str(tmp_path))
    assert out.failed == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_end_to_end_spec_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    kwargs = {"scratch_root": str(tmp_path)} if name == "learn_small" else {}
    out = workloads.WORKLOADS[name](3, 0.2, workloads.TINY, **kwargs)
    assert out.attempted >= 1 and out.failed == 0
    assert list(out.metrics) == [m[0] for m in workloads.END_TO_END]
    assert all(v > 0 for v, _ in out.metrics.values())
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name, tmp_path):
    out, tracer = workloads.traced_run(name, 2, workloads.TINY,
                                       scratch_root=str(tmp_path))
    assert out.failed == 0
    assert list(out.metrics) == [m[0] for m in workloads.PER_LAYER]
    op = {"train_headline": "op.train_step",
          "eval_headline": "op.eval_condition",
          "learn_small": "op.learn_pipeline"}[name]
    assert tracer.spans and all(s[1] == op for s in tracer.spans)
    calls = {k: v for k, (v, _) in out.metrics.items() if k.endswith(".calls")}
    if name == "eval_headline":
        assert calls["replay.sample_tuple.calls"] == 0
        assert calls["diffusion.reverse_step.calls"] > 0
    else:
        assert calls["replay.sample_tuple.calls"] > 0
        assert 0 < out.metrics["replay.l1_fraction"][0] < 1


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learn_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
