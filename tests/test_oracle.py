import numpy as np
import pytest

from ssm_diffusion import mdp as m
from ssm_diffusion import oracle as orc


def two_state_chain():
    # 0 -> 1 -> 1 deterministically under action "right"
    g = m.gridworld_new(2, 1, p_move=1.0, horizon=4,
                        reward=np.array([0.0, 1.0]))
    pol = m.policy_fixed_action(g, 3)
    return g, pol


def test_base_case_is_transition_row():
    g = m.gridworld_new(3, 3, p_move=0.7, horizon=4)
    pol = m.policy_toward_goal(g, (2, 2))
    table = orc.exact_ssm(g, pol, 1)
    np.testing.assert_allclose(table.d[:, :, 0, :], g.transition)


def test_two_state_chain_hand_values():
    g, pol = two_state_chain()
    table = orc.exact_ssm(g, pol, 2)
    # from 0 with 2 steps left: s1=1, s2=1 -> all mass on state 1
    for a in range(g.n_actions):
        if a == 3:
            assert table.d[0, 3, 1, 1] == pytest.approx(1.0)
            assert table.d[0, 3, 1, 0] == pytest.approx(0.0)


def test_matches_matrix_power_oracle():
    g = m.gridworld_new(5, 5, p_move=0.8, horizon=8)
    pol = m.policy_toward_goal(g, (4, 4))
    a = orc.exact_ssm(g, pol, 8)
    b = orc.ssm_matrix_power(g, pol, 8)
    assert np.max(np.abs(a.d - b.d)) < 1e-9


def test_rows_normalized():
    g = m.gridworld_new(4, 3, p_move=0.6, horizon=6)
    pol = m.policy_toward_goal(g, (0, 0))
    table = orc.exact_ssm(g, pol, 6)
    np.testing.assert_allclose(table.d.sum(axis=3), 1.0, atol=1e-9)
    assert np.all(table.d >= 0.0)


def test_mc_ssm_deterministic_chain():
    g, pol = two_state_chain()
    exact = orc.exact_ssm(g, pol, 3)
    pmf = orc.mc_ssm(g, pol, 0, 3, 3, 10_000, np.random.default_rng(0))
    # all three future states are 1 (after first step the chain sits at 1)
    np.testing.assert_allclose(pmf, exact.d[0, 3, 2], atol=1e-12)


def test_mc_ssm_n1_matches_transition_frequencies():
    g = m.gridworld_new(3, 1, p_move=0.5, horizon=2)
    pol = m.policy_fixed_action(g, 3)
    pmf = orc.mc_ssm(g, pol, 0, 3, 1, 100_000, np.random.default_rng(1))
    se = np.sqrt(0.25 / 100_000)
    assert abs(pmf[1] - 0.5) < 3 * se
    assert pmf.sum() == pytest.approx(1.0)


def test_mc_ssm_converges_to_exact():
    g = m.gridworld_new(4, 4, p_move=0.8, horizon=6)
    pol = m.policy_toward_goal(g, (3, 3))
    exact = orc.exact_ssm(g, pol, 6)
    pmf = orc.mc_ssm(g, pol, 0, pol.table[0], 6, 100_000,
                     np.random.default_rng(2))
    tv = 0.5 * np.abs(pmf - exact.d[0, pol.table[0], 5]).sum()
    assert tv < 0.05


def test_exact_q_constant_reward():
    g = m.gridworld_new(3, 3, p_move=0.7, horizon=4,
                        reward=np.full(9, 2.5))
    pol = m.policy_toward_goal(g, (2, 2))
    q = orc.exact_q(orc.exact_ssm(g, pol, 4), g)
    np.testing.assert_allclose(q, 2.5, atol=1e-12)


def test_exact_q_two_state_chain():
    g, pol = two_state_chain()
    q = orc.exact_q(orc.exact_ssm(g, pol, 2), g)
    assert q[0, 3, 1] == pytest.approx(1.0)


def test_exact_q_linear_in_reward():
    g = m.gridworld_new(3, 2, p_move=0.9, horizon=3)
    pol = m.policy_toward_goal(g, (2, 1))
    table = orc.exact_ssm(g, pol, 3)
    rng = np.random.default_rng(4)
    r1 = rng.normal(size=g.n_states)
    r2 = rng.normal(size=g.n_states)
    g.reward = r1
    q1 = orc.exact_q(table, g)
    g.reward = r2
    q2 = orc.exact_q(table, g)
    g.reward = r1 + r2
    q12 = orc.exact_q(table, g)
    np.testing.assert_allclose(q12, q1 + q2, atol=1e-12)


def test_exact_ssm_rejects_bad_n():
    g, pol = two_state_chain()
    with pytest.raises(ValueError):
        orc.exact_ssm(g, pol, 0)
