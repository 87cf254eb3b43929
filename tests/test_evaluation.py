import numpy as np
import pytest

from ssm_diffusion import bellman_loss as bl
from ssm_diffusion import diffusion as df
from ssm_diffusion import evaluation as ev
from ssm_diffusion import mdp as m
from ssm_diffusion import oracle as orc
from ssm_diffusion import runner
from ssm_diffusion.config import validate_config
from ssm_diffusion.errors import NumericError, ShapeError
from ssm_diffusion.runner import build_env, build_trainer, eval_n_values

from test_config import minimal_raw
from test_diffusion import reference_chain, strided_reference_chain


def sample_from_pmf(pmf, mdp, count, rng):
    """Inverse-CDF draw of cells, returned as encoded cell centers."""
    return m.encode_state(mdp, rng.choice(mdp.n_states, size=count, p=pmf))


def test_empirical_pmf_point_mass():
    g = m.gridworld_new(3, 3, horizon=2)
    samples = np.tile(m.encode_state(g, 4), (50, 1))
    pmf, clamped_frac = ev.empirical_pmf(samples, g)
    assert pmf[4] == 1.0 and pmf.sum() == pytest.approx(1.0)
    assert clamped_frac == 0.0


def test_empirical_pmf_normalized():
    g = m.gridworld_new(4, 4, horizon=2)
    samples = np.random.default_rng(0).uniform(-1, 1, size=(1000, 2))
    pmf, _ = ev.empirical_pmf(samples, g)
    assert pmf.sum() == pytest.approx(1.0)
    assert np.all(pmf >= 0.0)


def test_empirical_pmf_clamped_fraction():
    # 3x3 cell centers sit at -1, 0, 1: beyond +-1.5 a sample is clamped
    g = m.gridworld_new(3, 3, horizon=2)
    samples = np.array([[1.4, 0.0], [1.6, 0.0], [0.0, -2.0], [3.0, 3.0]])
    pmf, clamped_frac = ev.empirical_pmf(samples, g)
    assert clamped_frac == 0.75
    np.testing.assert_array_equal(np.nonzero(pmf)[0], [1, 5, 8])


def test_empirical_pmf_rejects_nonfinite():
    g = m.gridworld_new(3, 3, horizon=2)
    with pytest.raises(NumericError):
        ev.empirical_pmf(np.array([[np.inf, 0.0]]), g)


def test_empirical_pmf_roundtrip_from_oracle():
    g = m.gridworld_new(4, 4, p_move=0.8, horizon=4)
    pol = m.policy_toward_goal(g, (3, 3))
    table = orc.exact_ssm(g, pol, 4)
    target = table.d[0, pol.table[0], 3]
    samples = sample_from_pmf(target, g, 10_000, np.random.default_rng(1))
    pmf, _ = ev.empirical_pmf(samples, g)
    assert ev.tv_distance(pmf, target) < 0.02


def test_tv_distance_values():
    assert ev.tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert ev.tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert ev.tv_distance([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)
    # disjoint pmfs whose float sum of |p - q| is 2 + 4e-16
    p = np.zeros(12)
    p[:2] = 0.5
    q = np.zeros(12)
    q[2:] = 0.1
    assert 0.5 * np.abs(p - q).sum() > 1.0
    assert ev.tv_distance(p, q) == 1.0


def test_tv_distance_shape_error():
    with pytest.raises(ShapeError):
        ev.tv_distance([1.0], [0.5, 0.5])


def eval_set(mdp, policy, ns):
    cfg = validate_config(minimal_raw(env={"horizon": mdp.horizon},
                                      eval={"eval_n": ns}))
    return runner.eval_set(cfg, mdp, policy)


def test_eval_n_values():
    cfg = validate_config(minimal_raw(env={"horizon": 8}))
    assert eval_n_values(cfg) == [1, 4, 8]
    cfg = validate_config(minimal_raw(env={"horizon": 8},
                                      eval={"eval_n": [8, 2, 8]}))
    assert eval_n_values(cfg) == [2, 8]


def make_untrained(horizon=4):
    g = m.gridworld_new(4, 4, p_move=0.8, horizon=horizon,
                        reward=m.goal_reward(4, 4, (3, 3)))
    pol = m.policy_toward_goal(g, (3, 3))
    sched = df.make_schedule(8, 0.01, 0.2)
    trainer = bl.make_trainer(sched, g, hidden_sizes=(16,), seed=0)
    table = orc.exact_ssm(g, pol, horizon)
    return trainer, g, pol, table


def test_eval_model_report_structure():
    trainer, g, pol, table = make_untrained()
    es = eval_set(g, pol, [1, 2, 4])[::8]
    report = ev.eval_model(trainer, g, table, es, 200,
                           np.random.default_rng(0))
    assert len(report.rows) == 6
    assert 0.0 <= report.mean_tv <= report.max_tv <= 1.0
    assert list(report.mean_tv_by_n) == [1, 2, 4]
    for n, tv in report.mean_tv_by_n.items():
        assert tv == pytest.approx(np.mean(
            [r["tv"] for r in report.rows if r["n"] == n]))
    for row in report.rows:
        assert 0.0 <= row["tv"] <= 1.0
        assert 0.0 <= row["clamped_frac"] <= 1.0
        assert row["q_abs_err"] == pytest.approx(
            abs(row["q_est"] - row["q_exact"]))


def test_eval_model_requires_nonempty_set():
    trainer, g, pol, table = make_untrained()
    with pytest.raises(ValueError):
        ev.eval_model(trainer, g, table, [], 10, np.random.default_rng(0))


def test_untrained_model_has_large_tv():
    trainer, g, pol, table = make_untrained()
    es = eval_set(g, pol, [1, 2, 4])
    report = ev.eval_model(trainer, g, table, es, 500,
                           np.random.default_rng(0))
    assert report.mean_tv > 0.3


def test_eval_model_q_est_constant_reward():
    trainer, g, pol, table = make_untrained()
    g.reward = np.full(g.n_states, 3.0)
    report = ev.eval_model(trainer, g, table, [(0, int(pol.table[0]), 2)],
                           200, np.random.default_rng(0))
    assert report.rows[0]["q_est"] == pytest.approx(3.0)
    assert report.rows[0]["q_abs_err"] == pytest.approx(0.0)


def test_q_from_oracle_samples_matches_exact_q():
    # harness self-test: oracle-distributed samples reproduce exact Q
    trainer, g, pol, table = make_untrained()
    q = orc.exact_q(table, g)
    rng = np.random.default_rng(2)
    s, a, n = 0, int(pol.table[0]), 4
    samples = sample_from_pmf(table.d[s, a, n - 1], g, 10_000, rng)
    pmf, _ = ev.empirical_pmf(samples, g)
    q_hat = float(pmf @ g.reward)
    p = q[s, a, n - 1]
    se = np.sqrt(max(p * (1 - p), 1e-12) / 10_000)
    assert abs(q_hat - p) < 3 * se + 1e-9


def test_eval_deterministic_given_seed():
    trainer, g, pol, table = make_untrained()
    es = eval_set(g, pol, [1, 2, 4])[:4]
    r1 = ev.eval_model(trainer, g, table, es, 100, np.random.default_rng(5))
    r2 = ev.eval_model(trainer, g, table, es, 100, np.random.default_rng(5))
    assert r1.rows == r2.rows
    assert r1.mean_tv == r2.mean_tv


def headline_eval(steps):
    """eval_model's report on the untrained headline network at 6 headline
    conditions, 2000 samples each, with eval.steps = `steps`; returns the
    trainer, the environment and the eval set with it."""
    cfg = validate_config(minimal_raw(
        env={"width": 5, "height": 5, "horizon": 8}, diffusion={"K": 32},
        eval={"steps": steps}))
    trainer = build_trainer(cfg, seed=999)
    g, pol = build_env(cfg)
    table = orc.exact_ssm(g, pol, 8)
    es = [(s, int(pol.table[s]), n) for s, n in
          ((0, 1), (7, 1), (12, 4), (18, 4), (3, 8), (24, 8))]
    report = ev.eval_model(trainer, g, table, es, 2000,
                           np.random.default_rng(11))
    return trainer, g, es, report


def test_eval_model_pmfs_match_unfolded_reference():
    # the folded sampler decodes every sample to the cell the unfolded
    # chain gives; eval.steps = K runs all 32 steps
    trainer, g, es, report = headline_eval(32)
    rng = np.random.default_rng(11)
    for row, (s, a, n) in zip(report.rows, es):
        samples = reference_chain(trainer.sched, trainer.online,
                                  bl.conditioning(trainer, s, a, n,
                                                  trainer.sched.tau),
                                  2000, rng)
        assert row["pmf"] == ev.empirical_pmf(samples, g)[0].tolist()


def test_eval_model_default_chain_matches_strided_reference():
    # the default eval.steps, null, runs ceil(32 / 2) = 16 of the 32 steps
    trainer, g, es, report = headline_eval(None)
    assert report.steps == 16
    rng = np.random.default_rng(11)
    for row, (s, a, n) in zip(report.rows, es):
        samples = strided_reference_chain(
            trainer.sched, trainer.online,
            bl.conditioning(trainer, s, a, n, trainer.sched.tau), 2000, 16,
            rng)
        assert row["pmf"] == ev.empirical_pmf(samples, g)[0].tolist()
