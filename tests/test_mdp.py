import numpy as np
import pytest

from ssm_diffusion import mdp as m
from ssm_diffusion.errors import ConfigurationError, NumericError


def test_one_cell_grid_self_loops():
    g = m.gridworld_new(1, 1, p_move=1.0, horizon=2)
    for a in range(g.n_actions):
        assert g.transition[0, a, 0] == 1.0


def test_two_cell_deterministic_move():
    g = m.gridworld_new(2, 1, p_move=1.0, horizon=2)
    assert g.transition[0, 3, 1] == 1.0  # right from cell 0


def test_row_sums_stochastic_grid():
    g = m.gridworld_new(5, 5, p_move=0.8, horizon=4)
    sums = g.transition.sum(axis=2)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    assert np.all(g.transition >= 0.0)


def test_wall_blocking_keeps_mass_home():
    g = m.gridworld_new(3, 3, p_move=0.8, horizon=2)
    # up from the top-left corner is blocked: all mass stays
    assert g.transition[0, 0, 0] == 1.0
    # right from top-left: 0.8 to cell 1, 0.2 stay
    assert g.transition[0, 3, 1] == pytest.approx(0.8)
    assert g.transition[0, 3, 0] == pytest.approx(0.2)


def test_gridworld_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        m.gridworld_new(0, 3)
    with pytest.raises(ConfigurationError):
        m.gridworld_new(3, 3, p_move=0.0)
    with pytest.raises(ConfigurationError):
        m.gridworld_new(3, 3, horizon=0)


def test_step_deterministic_row():
    g = m.gridworld_new(2, 1, p_move=1.0, horizon=2)
    rng = np.random.default_rng(0)
    assert all(m.step(g, 0, 3, rng) == 1 for _ in range(20))


def test_step_empirical_frequency():
    g = m.gridworld_new(2, 1, p_move=0.5, horizon=2)
    rng = np.random.default_rng(1)
    n = 100_000
    moves = sum(m.step(g, 0, 3, rng) == 1 for _ in range(n))
    se = np.sqrt(0.25 / n)
    assert abs(moves / n - 0.5) < 3 * se


def test_step_reproducible():
    g = m.gridworld_new(3, 3, p_move=0.7, horizon=2)
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    seq1 = [m.step(g, 4, 1, rng1) for _ in range(10)]
    seq2 = [m.step(g, 4, 1, rng2) for _ in range(10)]
    assert seq1 == seq2


def test_step_index_errors():
    g = m.gridworld_new(2, 2, horizon=2)
    rng = np.random.default_rng(0)
    with pytest.raises(IndexError):
        m.step(g, 4, 0, rng)
    with pytest.raises(IndexError):
        m.step(g, 0, 4, rng)


def test_rollout_lengths():
    g = m.gridworld_new(3, 3, p_move=1.0, horizon=1)
    pol = m.policy_fixed_action(g, 3)
    traj = m.rollout(g, pol, np.random.default_rng(0))
    assert len(traj.states) == 2 and len(traj.actions) == 1
    # stored once, as tuples of Python ints
    assert type(traj.states) is tuple and type(traj.actions) is tuple
    assert all(type(v) is int for v in traj.states + traj.actions)


def test_rollout_one_cell_grid():
    g = m.gridworld_new(1, 1, horizon=5)
    pol = m.policy_fixed_action(g, 0)
    traj = m.rollout(g, pol, np.random.default_rng(0))
    assert traj.states == (0,) * 6


def test_rollout_deterministic_env_seed_independent():
    g = m.gridworld_new(4, 1, p_move=1.0, horizon=3)
    pol = m.policy_fixed_action(g, 3)
    t1 = m.rollout(g, pol, np.random.default_rng(1), start=0)
    t2 = m.rollout(g, pol, np.random.default_rng(99), start=0)
    np.testing.assert_array_equal(t1.states, t2.states)


def test_rollout_transitions_have_support():
    g = m.gridworld_new(4, 4, p_move=0.6, horizon=8)
    pol = m.policy_toward_goal(g, (3, 3))
    traj = m.rollout(g, pol, np.random.default_rng(3))
    for t in range(len(traj.actions)):
        assert g.transition[traj.states[t], traj.actions[t],
                            traj.states[t + 1]] > 0.0


def test_encode_center_and_corner():
    g = m.gridworld_new(5, 5, horizon=2)
    np.testing.assert_allclose(m.encode_state(g, 12), [0.0, 0.0])
    np.testing.assert_allclose(m.encode_state(g, 0), [-1.0, -1.0])
    np.testing.assert_allclose(m.encode_state(g, 24), [1.0, 1.0])
    for bad in (-1, 25, [0, -1], [24, 25], 1.0):
        with pytest.raises(IndexError):
            m.encode_state(g, bad)


def test_decode_nearest_center():
    g = m.gridworld_new(5, 5, horizon=2)
    cells, clamped = m.decode_states(g, np.array([[-0.9, -0.95]]))
    assert cells == [0] and clamped == [False]


def test_decode_encode_identity():
    g = m.gridworld_new(4, 3, horizon=2)
    for s in range(g.n_states):
        assert m.decode_states(g, m.encode_state(g, [s]))[0] == [s]


def test_decode_clamps_out_of_range():
    g = m.gridworld_new(3, 3, horizon=2)
    cells, clamped = m.decode_states(g, np.array([[5.0, 5.0], [1.2, 0.0],
                                                  [1.6, 0.0], [0.0, -1.6]]))
    np.testing.assert_array_equal(cells, [8, 5, 5, 1])
    np.testing.assert_array_equal(clamped, [True, False, True, True])


def test_decode_rejects_nonfinite():
    g = m.gridworld_new(3, 3, horizon=2)
    with pytest.raises(NumericError):
        m.decode_states(g, np.array([[np.nan, 0.0]]))


def test_decode_states_matches_scalar():
    g = m.gridworld_new(5, 4, horizon=2)
    vs = np.random.default_rng(0).uniform(-1.3, 1.3, size=(200, 2))
    batch, clamped = m.decode_states(g, vs)
    centers = m.encode_state(g, np.arange(g.n_states))
    for r in range(len(vs)):
        # scalar reference: the cell whose center is nearest, which for
        # points off the grid is the nearest border cell
        nearest = np.argmin(np.sum((centers - vs[r]) ** 2, axis=1))
        assert batch[r] == nearest
        # clamped: more than half a cell beyond the outermost centers
        half = 1.0 / np.array([g.width - 1, g.height - 1])
        assert clamped[r] == np.any(np.abs(vs[r]) > 1.0 + half)
    assert 0 < clamped.sum() < len(vs)


def test_encode_action_one_hot():
    g = m.gridworld_new(2, 2, horizon=2)
    np.testing.assert_array_equal(m.encode_action(g, 0), [1, 0, 0, 0])
    encs = m.encode_action(g, np.arange(4))
    np.testing.assert_array_equal(encs, np.eye(4))
    for a in range(4):
        np.testing.assert_array_equal(m.encode_action(g, a), encs[a])
    for bad in (4, -1, [4], [0, -1]):
        with pytest.raises(IndexError):
            m.encode_action(g, bad)


def test_policy_toward_goal_moves_toward_goal():
    g = m.gridworld_new(5, 5, horizon=2)
    pol = m.policy_toward_goal(g, (4, 4))
    assert pol.table[0] == 3        # far left -> right
    assert pol.table[4] == 1        # goal column, above -> down
    assert pol.table[24] == 0       # at goal -> up (blocked, stays)
