"""Property tests of the exact oracles, replay and the state encoding on
random tabular MDPs, beyond the gridworlds the other tests use."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssm_diffusion import mdp as m
from ssm_diffusion import oracle as orc
from ssm_diffusion.replay import ReplayBuffer

SETTINGS = settings(derandomize=True, deadline=None)


@st.composite
def random_mdps(draw):
    """A row-stochastic T with S <= 6 and A <= 4, some transitions exactly
    zero, a deterministic policy and a horizon n_max <= 6."""
    S = draw(st.integers(1, 6))
    A = draw(st.integers(1, 4))
    T = draw(arrays(np.float64, (S, A, S),
                    elements=st.one_of(st.just(0.0), st.floats(0.01, 1.0))))
    empty = T.sum(axis=2) == 0.0
    T[empty] = np.eye(S)[np.nonzero(empty)[0]]   # an empty row self-loops
    T /= T.sum(axis=2, keepdims=True)
    table = draw(arrays(np.int64, (S,), elements=st.integers(0, A - 1)))
    n_max = draw(st.integers(1, 6))
    mdp = m.TabularMdp(width=S, height=1, n_states=S, n_actions=A,
                       transition=T, reward=np.zeros(S), horizon=n_max,
                       p_move=1.0)
    return mdp, m.Policy(kind="tabular_deterministic", table=table), n_max


@SETTINGS
@given(random_mdps())
def test_dp_oracle_matches_matrix_power(case):
    mdp, policy, n_max = case
    dp = orc.exact_ssm(mdp, policy, n_max).d
    mp = orc.ssm_matrix_power(mdp, policy, n_max).d
    np.testing.assert_allclose(dp, mp, rtol=0, atol=1e-12)


@SETTINGS
@given(random_mdps())
def test_oracle_rows_are_pmfs(case):
    mdp, policy, n_max = case
    d = orc.exact_ssm(mdp, policy, n_max).d
    assert np.all(d >= 0.0)
    np.testing.assert_allclose(d.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


@SETTINGS
@given(random_mdps())
def test_flow_identity(case):
    # d(.|s,a,n) = sum_s' T(s'|s,a) [(1/n) delta_s' + ((n-1)/n) d(.|s',pi(s'),n-1)]
    mdp, policy, n_max = case
    d = orc.exact_ssm(mdp, policy, n_max).d
    S = mdp.n_states
    for n in range(2, n_max + 1):
        shorter = d[np.arange(S), policy.table, n - 2]          # (S', S)
        rhs = mdp.transition / n + (n - 1) / n * mdp.transition @ shorter
        np.testing.assert_allclose(d[:, :, n - 1], rhs, rtol=0, atol=1e-12)


@SETTINGS
@given(st.integers(1, 12), st.integers(1, 12))
def test_decode_inverts_encode(width, height):
    g = m.gridworld_new(width, height, horizon=1)
    states = np.arange(g.n_states)
    encoded = m.encode_state(g, states)
    # the vector call is the per-element scalar call, bit for bit
    assert encoded.tobytes() == np.array(
        [m.encode_state(g, int(s)) for s in states]).tobytes()
    cells, clamped = m.decode_states(g, encoded)
    np.testing.assert_array_equal(cells, states)
    assert not clamped.any()
    actions = np.arange(g.n_actions)
    assert m.encode_action(g, actions).tobytes() == np.array(
        [m.encode_action(g, int(a)) for a in actions]).tobytes()


@settings(SETTINGS, max_examples=50)
@given(random_mdps(), st.integers(0, 2 ** 32 - 1))
def test_replay_tuples_follow_the_mdp(case, seed):
    mdp, policy, n_max = case
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(mdp, policy, 8)
    for e in range(8):
        buf.push_trajectory(m.rollout(mdp, policy, rng, episode_id=e))
    reach = orc.exact_ssm(mdp, policy, n_max).d
    rows = np.array([buf.sample_tuple(rng) for _ in range(2000)])
    s, a, s_next, a_next, x, n, is_l1 = rows.T
    np.testing.assert_array_equal(a, policy.table[s])
    np.testing.assert_array_equal(a_next, policy.table[s_next])
    assert np.all(mdp.transition[s, a, s_next] > 0.0)
    assert np.all((1 <= n) & (n <= n_max))
    assert np.all(x[is_l1 == 1] == s_next[is_l1 == 1])
    # x lies at most n steps after s, so the exact measure puts mass on it
    assert np.all(reach[s, a, n - 1, x] > 0.0)
    # the immediate-successor branch fires with probability 1/n
    for k in np.unique(n):
        share = is_l1[n == k].mean()
        sigma = np.sqrt((1 / k) * (1 - 1 / k) / np.sum(n == k))
        assert abs(share - 1 / k) <= 5 * sigma
