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
                       transition=T, reward=np.zeros(S), horizon=n_max)
    return mdp, m.Policy(table=table), n_max


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


def noised_flux(pmf, centers, abar, y):
    """(q_p(y), eps*_p(y)) for pmfs p over the cell centers (rows of pmf's
    last axis) at query points y: the noised density
    q_p(y) = sum_x p_x N(y; sqrt(abar) c_x, (1 - abar) I), and the exact
    denoiser eps*_p(y) = (y - sqrt(abar) E[c | y]) / sqrt(1 - abar), the
    expectation under the posterior over the centers."""
    var = 1.0 - abar
    sq = np.sum((y[:, None, :] - np.sqrt(abar) * centers) ** 2, axis=-1)
    joint = pmf[..., None, :] * np.exp(-sq / (2.0 * var)) / (2.0 * np.pi * var)
    q = joint.sum(axis=-1)
    mean_c = (joint / q[..., None]) @ centers
    return q, (y - np.sqrt(abar) * mean_c) / np.sqrt(var)


@SETTINGS
@given(random_mdps(), st.integers(0, 2 ** 32 - 1))
def test_bellman_update_in_noise_space(case, seed):
    # the flow identity, carried to noise space: q_{d_n} eps*_{d_n} =
    # (1/n) q_T eps*_T + ((n-1)/n) sum_s' T(s'|s,a) q_{d_{n-1}(s')}
    # eps*_{d_{n-1}(s')}, where T is T(.|s,a) and d_{n-1}(s') conditions on
    # (s', pi(s')). td_loss's two branches regress onto these terms, so
    # the loss's population minimizer is the exact denoiser of d_n
    mdp, policy, n_max = case
    d = orc.exact_ssm(mdp, policy, n_max).d
    S, T = mdp.n_states, mdp.transition
    centers = m.encode_state(mdp, np.arange(S))
    rng = np.random.default_rng(seed)
    for abar in (0.05, 0.5, 0.95):
        # points where the noised measures put their mass
        y = np.sqrt(abar) * centers[rng.integers(S, size=8)] \
            + np.sqrt(1.0 - abar) * rng.standard_normal((8, 2))
        q_d, eps_d = noised_flux(d, centers, abar, y)
        q_T, eps_T = noised_flux(T, centers, abar, y)
        flux_d, flux_T = q_d[..., None] * eps_d, q_T[..., None] * eps_T
        # (s', n-1, point, 2): the terms of d_{n-1}(s', pi(s'))
        flux_next = flux_d[np.arange(S), policy.table]
        for n in range(2, n_max + 1):
            rhs = flux_T / n + (n - 1) / n * np.einsum(
                "saj,jpk->sapk", T, flux_next[:, n - 2])
            # both sides over q_{d_n}(y) > 0, so the tolerance is on eps*
            np.testing.assert_allclose(rhs / q_d[:, :, n - 1, :, None],
                                       eps_d[:, :, n - 1], rtol=0,
                                       atol=1e-10)


@settings(SETTINGS, max_examples=25)
@given(random_mdps().filter(lambda case: min(case[0].n_states, case[2]) > 1),
       st.integers(0, 2 ** 32 - 1))
def test_bellman_update_through_replay(case, seed):
    # the same identity, read off replayed rows of one (s, pi(s), H), with
    # S >= 2 and H >= 2 so that both branches are drawn and differ. Each row
    # takes x0 and its regression target as td_loss takes them: s' and the
    # noise that moves x0 to y on an L1 row, x and eps*_{d_{H-1}(s',
    # pi(s'))}(y) on an L2 row. Weighted by N(y; sqrt(abar) c_{x0},
    # (1 - abar) I), the targets average to eps*_{d_H}(y). A buffer of one
    # trajectory started at s, refilled for every kept row, makes the rows
    # independent (t = 0 is the only time with H steps left), so the
    # self-normalized estimate is within a CLT bound of eps*
    mdp, policy, H = case
    S, R = mdp.n_states, 10_000
    rng = np.random.default_rng(seed)
    s = int(rng.integers(S))
    # R trajectories from s, drawn a step of all of them at a time
    states = np.full((R, H + 1), s)
    for t in range(H):
        cdf = np.cumsum(mdp.transition[states[:, t],
                                       policy.table[states[:, t]]], axis=1)
        states[:, t + 1] = np.minimum(
            np.sum(cdf < rng.random((R, 1)), axis=1), S - 1)
    buf = ReplayBuffer(mdp, policy, 1)
    rows = []
    for traj in zip(states.tolist(), policy.table[states[:, :-1]].tolist()):
        buf.push_trajectory(m.Trajectory(*map(tuple, traj)))
        row = buf.sample_tuple(rng)
        while row.n != H:
            row = buf.sample_tuple(rng)
        rows.append(row)
    s_row, a, s_next, a_next, x, _, is_l1 = np.array(rows).T
    assert np.all(s_row == s) and np.all(a == policy.table[s])
    l2 = is_l1 == 0
    d = orc.exact_ssm(mdp, policy, H).d
    d_H = d[s, policy.table[s], H - 1]
    centers = m.encode_state(mdp, np.arange(S))
    x0 = centers[np.where(l2, x, s_next)]
    for abar in (0.05, 0.5, 0.95):
        # points where the noised d_H puts its mass
        y = np.sqrt(abar) * centers[rng.choice(S, size=4, p=d_H)] \
            + np.sqrt(1.0 - abar) * rng.standard_normal((4, 2))
        _, want = noised_flux(d_H, centers, abar, y)
        # (row, point, 2): the noise that moves each row's x0 to each y
        target = (y - np.sqrt(abar) * x0[:, None, :]) / np.sqrt(1.0 - abar)
        w = np.exp(-0.5 * np.sum(target ** 2, axis=-1))
        # (s', a', point, 2), read at each L2 row's (s', a_next)
        _, eps_next = noised_flux(d[:, :, H - 2], centers, abar, y)
        target[l2] = eps_next[s_next[l2], a_next[l2]]
        est = np.einsum("rp,rpk->pk", w, target) / w.sum(axis=0)[:, None]
        # the delta method's standard error of a ratio of means
        se = np.sqrt(np.einsum("rp,rpk->pk", w ** 2, (target - est) ** 2)) \
            / w.sum(axis=0)[:, None]
        assert np.all(np.abs(est - want) <= 5.0 * se + 1e-9)


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
