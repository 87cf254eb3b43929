import hashlib
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from ssm_diffusion import mdp as m
from ssm_diffusion import replay
from ssm_diffusion.checkpoint import load_checkpoint, save_checkpoint
from ssm_diffusion.config import validate_config
from ssm_diffusion.replay import ReplayBuffer, _below
from ssm_diffusion.runner import (build_env, build_trainer, make_checkpoint,
                                  run_training)

from test_config import minimal_raw


def make_buffer(width=4, horizon=4, p_move=1.0, capacity=10, n_traj=5, seed=0):
    g = m.gridworld_new(width, 1, p_move=p_move, horizon=horizon)
    pol = m.policy_fixed_action(g, 3)
    buf = ReplayBuffer(g, pol, capacity)
    rng = np.random.default_rng(seed)
    for _ in range(n_traj):
        buf.push_trajectory(m.rollout(g, pol, rng, start=0))
    return buf, rng


def test_push_and_size():
    buf, _ = make_buffer(n_traj=1)
    assert len(buf) == 1


def test_fifo_eviction():
    buf, rng = make_buffer(capacity=2, n_traj=0)
    pol = m.policy_fixed_action(buf.mdp, 3)
    for e in range(3):
        buf.push_trajectory(m.rollout(buf.mdp, pol, rng, start=e))
    assert len(buf) == 2
    # the right-moving chains from cells 1 and 2
    assert [row[0] for row in buf.rows] == [1, 2]


def test_evicted_trajectory_never_sampled():
    buf, rng = make_buffer(capacity=2, n_traj=0)
    pol = m.policy_fixed_action(buf.mdp, 3)
    for e in range(4):
        buf.push_trajectory(m.rollout(buf.mdp, pol, rng, start=e))
    remaining = {id(row) for row in buf.rows}
    assert len(remaining) == 2
    # the chains from cells 0 and 1 are gone, and only they visit 0 and 1
    assert all(buf.sample_tuple(rng).s >= 2 for _ in range(500))


def test_empty_buffer_raises():
    buf, rng = make_buffer(n_traj=0)
    with pytest.raises(RuntimeError):
        buf.sample_tuple(rng)


def test_n_equals_one_forces_l1():
    buf, rng = make_buffer(horizon=1, n_traj=3)
    for _ in range(50):
        tup = buf.sample_tuple(rng)
        assert tup.n == 1 and tup.is_l1 and tup.x == tup.s_next


def test_l1_flag_iff_offset_one():
    # deterministic right-moving chain: all states distinct, so
    # is_l1 exactly when x is the immediate successor
    buf, rng = make_buffer(width=10, horizon=6, n_traj=4)
    for _ in range(2000):
        tup = buf.sample_tuple(rng)
        assert tup.n >= 1
        assert tup.is_l1 == (tup.x == tup.s_next)


def test_branch_probability_one_over_n():
    # deterministic right-moving chain, fixed n=4 at every index
    buf, rng = make_buffer(width=8, horizon=4, n_traj=5)
    n_samples = 100_000
    hits = n_tuples = 0
    while n_tuples < n_samples:
        tup = buf.sample_tuple(rng)
        if tup.n == 4:
            n_tuples += 1
            hits += tup.is_l1
    freq = hits / n_samples
    se = np.sqrt(0.25 * 0.75 / n_samples)
    assert abs(freq - 0.25) < 3 * se


def test_x_within_episode_suffix():
    buf, rng = make_buffer(width=10, horizon=6, n_traj=4)
    # deterministic env: trajectory from 0 is 0,1,2,...; suffix membership
    # means x == s + k for some k in 1..n
    for _ in range(1000):
        tup = buf.sample_tuple(rng)
        assert tup.s + 1 <= tup.x <= tup.s + tup.n


def test_x_uniform_over_suffix():
    buf, rng = make_buffer(width=10, horizon=5, n_traj=1)
    counts = np.zeros(6)
    total = 0
    for _ in range(50_000):
        tup = buf.sample_tuple(rng)
        if tup.s == 0 and tup.n == 5:
            counts[tup.x] += 1
            total += 1
    probs = counts[1:] / total
    se = np.sqrt(0.2 * 0.8 / total)
    np.testing.assert_allclose(probs, 0.2, atol=3 * se)


def test_horizon_decoupled_from_time_index():
    # deterministic right-moving chain from 0: the state equals the time
    # index, so n=1 tuples must come from every position, not just the
    # last transition of the episode
    buf, rng = make_buffer(width=10, horizon=6, n_traj=1)
    seen_s = {buf.sample_tuple(rng).s for _ in range(2000)}
    seen_n1 = set()
    for _ in range(2000):
        tup = buf.sample_tuple(rng)
        if tup.n == 1:
            seen_n1.add(tup.s)
    assert seen_n1 == set(range(6))
    assert seen_s == set(range(6))


def test_tuple_holds_indices_with_policy_actions():
    buf, rng = make_buffer(width=5, horizon=3, n_traj=3)
    for _ in range(50):
        tup = buf.sample_tuple(rng)
        assert all(type(v) is int for v in tup[:6])
        # make_buffer's policy always moves right
        assert tup.a == tup.a_next == 3


@pytest.mark.parametrize("make_policy", [
    lambda mdp: m.policy_toward_goal(mdp, (1, 2)),
    lambda mdp: m.policy_fixed_action(mdp, 2),
    lambda mdp: m.Policy(table=np.array([0, 1, 2, 3, 0, 1, 2, 3, 1]))],
    ids=["toward_goal", "fixed_action", "table"])
def test_tuple_types_and_next_action_under_each_policy_kind(make_policy):
    # perfbench's hooks read .is_l1 and the loss reads the rows as ints
    mdp, _ = build_env(validate_config(minimal_raw()))
    pol = make_policy(mdp)
    buf, rng = ReplayBuffer(mdp, pol, 40), np.random.default_rng(3)
    for _ in range(40):
        buf.push_trajectory(m.rollout(mdp, pol, rng))
    seen = set()
    for _ in range(2000):
        tup = buf.sample_tuple(rng)
        assert type(tup) is replay.TrainTuple
        assert [type(v) for v in tup] == [int] * 6 + [bool]
        assert tup.a_next == int(pol.table[tup.s_next])
        seen.add(tup.s_next)
    # every state that follows a step of some stored trajectory
    H = mdp.horizon
    assert seen == {s for row in buf.rows for s in row[1:H + 1]}


def test_numpy_integer_sizes_sample():
    # replay's exact draws multiply a 64-bit word by the horizon, which a
    # NumPy integer would overflow
    g = m.gridworld_new(np.int64(3), np.int64(1), horizon=np.int64(4))
    assert [type(v) for v in (g.width, g.height, g.horizon)] == [int] * 3
    pol = m.policy_fixed_action(g, 3)
    buf, rng = ReplayBuffer(g, pol, 2), np.random.default_rng(0)
    buf.push_trajectory(m.rollout(g, pol, rng))
    assert 1 <= buf.sample_tuple(rng).n <= 4


def test_push_rejects_trajectory_of_another_horizon():
    buf, rng = make_buffer(horizon=4, n_traj=1)
    row = buf.rows[0]
    # one step fewer, and one action fewer
    for bad in (row[:4] + row[5:-1], row[:-1]):
        with pytest.raises(ValueError, match="horizon 4"):
            buf.push_trajectory(bad)
    assert len(buf) == 1


def ref_below(rng, bound):
    """Lemire's draw with its threshold 2**64 % bound computed up front: the
    high word of word * bound, redrawn while the low word is below it."""
    threshold = (2 ** 64 - bound) % bound
    while True:
        p = int(rng.bit_generator.random_raw()) * bound
        if p % 2 ** 64 >= threshold:
            return p // 2 ** 64


class RefReplay:
    """A FIFO of NumPy copies of the trajectories' states and actions,
    sampled with the two draws of sample_tuple split by // and %, the
    horizon read from a stored trajectory."""

    def __init__(self, policy_table, capacity):
        self.trajs = deque(maxlen=capacity)
        self.table = np.asarray(policy_table)

    def push(self, row):
        H = len(row) // 2
        self.trajs.append((np.array(row[:H + 1]), np.array(row[H + 1:])))

    def sample(self, rng):
        H = len(self.trajs[0][1])
        u = ref_below(rng, len(self.trajs) * H)
        states, actions = self.trajs[u // H]
        n = u % H + 1
        j = ref_below(rng, (H - n + 1) * n)
        t, k = j // n, j % n + 1
        s_next = int(states[t + 1])
        return (int(states[t]), int(actions[t]), s_next,
                int(self.table[s_next]), int(states[t + k]), n, k == 1)


def assert_same_stream(buf, ref, seed, count=3000):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(count):
        assert tuple(buf.sample_tuple(rng)) == ref.sample(ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_tuple_matches_reference_after_eviction_and_checkpoint(
        tmp_path):
    cfg = validate_config(minimal_raw(
        env={"width": 4, "height": 3, "horizon": 5, "p_move": 0.7},
        training={"buffer_capacity": 6, "initial_trajectories": 6,
                  "steps": 0}))
    mdp, policy = build_env(cfg)
    buf, ref = ReplayBuffer(mdp, policy, 6), RefReplay(policy.table, 6)
    rng = np.random.default_rng(1)
    pushed = [m.rollout(mdp, policy, rng) for _ in range(15)]
    for row in pushed:
        buf.push_trajectory(row)
        ref.push(row)
    assert list(buf.rows) == pushed[9:]
    assert_same_stream(buf, ref, 7)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, make_checkpoint(cfg, build_trainer(cfg), buf, rng))
    # a resumed run of no steps: its buffer as restored
    restored = run_training(cfg, tmp_path / "resumed",
                            resume_ck=load_checkpoint(path))[3]
    assert_same_stream(restored, ref, 8)


# eight trajectories of a 3x3 grid at H = 4, written out by hand
PINNED_ROWS = [
    (0, 1, 2, 5, 8, 3, 3, 1, 1),
    (4, 4, 5, 8, 8, 3, 3, 1, 0),
    (6, 7, 7, 8, 8, 3, 3, 1, 1),
    (2, 5, 8, 8, 5, 1, 1, 0, 2),
    (3, 4, 1, 0, 3, 3, 0, 2, 1),
    (8, 8, 7, 6, 3, 2, 2, 2, 0),
    (1, 1, 2, 2, 5, 3, 3, 1, 1),
    (5, 4, 3, 6, 7, 2, 2, 1, 3),
]


def test_sample_tuple_stream_pinned_across_versions():
    # the draws read only bit_generator.random_raw, whose PCG64 words do not
    # depend on BLAS or on Generator's methods; the constants were made by
    # the trajectory-object buffer that this row buffer replaced
    g = m.gridworld_new(3, 3, horizon=4)
    buf = ReplayBuffer(g, m.policy_toward_goal(g, (2, 2)), 6)
    for row in PINNED_ROWS:
        buf.push_trajectory(row)
    assert list(buf.rows) == PINNED_ROWS[2:]
    rng = np.random.default_rng(2024)
    draws = np.array([tuple(buf.sample_tuple(rng)) for _ in range(512)],
                     dtype="<i8")
    assert hashlib.sha256(draws.tobytes()).hexdigest() == (
        "3857a0f37272c3c53975dd9a0da6dd2202e03ee4b71979fe81db8966d6b11b77")
    assert rng.bit_generator.state == {
        "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
        "state": {"state": 157605803940848301573742804727617122078,
                  "inc": 263843294879837360010514471918415607657}}


class AllDraws:
    """A stand-in generator whose draw(high) walks every sequence of draws,
    one sample after another: a depth-first odometer over the tree of
    draws, so each leaf is reached exactly once. sample_tuple reaches it
    as rng.bit_generator.random_raw, through a _below that passes on its
    bound."""

    def __init__(self):
        self.path, self.depth = [], 0   # [value, high] per draw of a sample
        self.bit_generator = SimpleNamespace(random_raw=self.draw)

    def draw(self, high):
        if self.depth == len(self.path):
            self.path.append([0, high])
        value, known = self.path[self.depth]
        assert known == high
        self.depth += 1
        return value

    def next_sample(self):
        """Move to the next leaf; False once every leaf has been reached."""
        del self.path[self.depth:]
        self.depth = 0
        while self.path:
            self.path[-1][0] += 1
            if self.path[-1][0] < self.path[-1][1]:
                return True
            self.path.pop()
        return False


@pytest.mark.parametrize("horizon", [1, 2, 5, 8])
@pytest.mark.parametrize("pushed, capacity", [(1, 1), (3, 3), (5, 3)],
                         ids=["one", "three", "full-after-eviction"])
def test_sample_tuple_draws_split_exactly(horizon, pushed, capacity,
                                          monkeypatch):
    monkeypatch.setattr(replay, "_below", lambda raw, bound: raw(bound))
    # right-moving chains from states 10e: the state is 10e + t, so a tuple
    # names its buffer slot, time index and future offset
    g = m.gridworld_new(10 * pushed, 1, horizon=horizon)
    pol = m.policy_fixed_action(g, 3)
    buf = ReplayBuffer(g, pol, capacity)
    for e in range(pushed):
        buf.push_trajectory(m.rollout(g, pol, np.random.default_rng(e),
                                       start=10 * e))
    slot = {row[0] // 10: i for i, row in enumerate(buf.rows)}
    rng, firsts = AllDraws(), {}
    while True:
        tup = buf.sample_tuple(rng)
        assert len(rng.path) == 2
        t, k = tup.s % 10, tup.x - tup.s
        assert tup.s_next == tup.s + 1 and tup.is_l1 == (k == 1)
        pair, leaves = firsts.setdefault(rng.path[0][0],
                                         ((slot[tup.s // 10], tup.n), []))
        assert pair == (slot[tup.s // 10], tup.n)
        leaves.append((t, k))
        if not rng.next_sample():
            break
    # each (trajectory, n) comes from one value of the first draw, and below
    # it each (t, k) from one value of the second: both are exactly uniform
    assert sorted(pair for pair, _ in firsts.values()) == [
        (b, n) for b in range(capacity) for n in range(1, horizon + 1)]
    for (_, n), leaves in firsts.values():
        assert sorted(leaves) == [(t, k) for t in range(horizon - n + 1)
                                  for k in range(1, n + 1)]


def words(*values):
    """A word source that returns values in order and fails past them."""
    it = iter(values)
    return lambda: next(it)


@pytest.mark.parametrize("bound", [3, 7, 2 ** 63 + 1])
def test_below_rejects_low_words_under_threshold(bound):
    threshold = 2 ** 64 % bound
    inverse = pow(bound, -1, 2 ** 64)    # bound is odd
    # the word whose product has low word `low`
    word = lambda low: low * inverse % 2 ** 64
    accepted = word(threshold)
    for rejected in {word(0), word(threshold - 1)}:
        assert _below(words(rejected, accepted), bound) == \
            (accepted * bound) >> 64
    # a low word at or above the threshold is kept at the first draw
    for w in (accepted, word(bound), 2 ** 64 - 1, 2 ** 63):
        assert _below(words(w), bound) == (w * bound) >> 64 < bound


@pytest.mark.parametrize("bound, critical", [(1, None), (3, 13.816),
                                             (7, 22.458), (40, 72.055)])
def test_below_uniform_chi_square(bound, critical):
    # critical: the chi-square 0.999 quantile with bound - 1 degrees of
    # freedom; the words come from a fixed seed, so the test is exact
    raw = np.random.default_rng(2024).bit_generator.random_raw
    draws = 100_000
    counts = np.bincount([_below(raw, bound) for _ in range(draws)],
                         minlength=bound)
    assert len(counts) == bound
    if critical is None:
        return
    expected = draws / bound
    assert np.sum((counts - expected) ** 2 / expected) < critical
