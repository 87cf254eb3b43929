"""Trajectory store emitting training tuples with the 1/n branch statistics
the two-term loss decomposition requires.

A tuple fixes a remaining-horizon n (uniform over {1..H}), a time index t
with at least n steps left (uniform over {0..H-n}), then draws the future
state x at a uniform offset in {1..n}. The immediate-successor branch
(x == s') therefore fires with probability exactly 1/n. Sampling n first
rather than tying it to the time index (n = H - t) keeps every horizon
value trained on the full visitation distribution: the measure being
learned does not depend on where in the episode the transition occurred,
but with n = H - t the small-n conditions would only ever see late-episode
states.

A trajectory is one row (s_0, ..., s_H, a_0, ..., a_{H-1}) of 2H + 1
integers: mdp.rollout returns it, the buffer keeps it, and the
checkpoint's replay block stores one int64 row per trajectory.
"""

from collections import deque
from typing import NamedTuple

from .errors import FormatError


def _below(raw, m):
    """An integer exactly uniform on {0..m-1}, from the 64-bit words raw()
    returns: Lemire's multiply-shift, which keeps the high word of
    raw() * m and rejects the 2**64 % m low words that would bias it
    (Lemire, "Fast Random Integer Generation in an Interval", 2019)."""
    while True:
        p = raw() * m
        low = p & 0xFFFF_FFFF_FFFF_FFFF
        # 2**64 % m < m, so the modulus is needed only for a low word < m
        if low >= m or low >= (1 << 64) % m:
            return p >> 64


class TrainTuple(NamedTuple):
    """State, action and horizon indices of one replayed row; the loss
    encodes them to vectors a batch at a time."""
    s: int
    a: int
    s_next: int
    a_next: int     # policy(s_next)
    x: int
    n: int
    is_l1: bool


class ReplayBuffer:
    """Bounded FIFO of trajectory rows over one environment/policy pair."""

    def __init__(self, mdp, policy, capacity):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.mdp = mdp
        # the policy's action in each state, as Python ints
        self.policy_actions = tuple(map(int, policy.table))
        self.rows = deque(maxlen=capacity)

    def __len__(self):
        return len(self.rows)

    def push_trajectory(self, row):
        H = self.mdp.horizon
        if len(row) != 2 * H + 1:
            raise ValueError(f"trajectory does not have the horizon {H}")
        self.rows.append(row)

    def sample_tuple(self, rng):
        """Uniform trajectory, uniform remaining horizon, uniform time index
        among those with enough steps left, uniform future offset."""
        if not self.rows:
            raise RuntimeError("cannot sample from an empty replay buffer")
        # two draws from the bit generator's raw words, each split into a
        # uniform pair: (trajectory, n - 1), then (t, k - 1) with k the
        # future offset
        H, raw = self.mdp.horizon, rng.bit_generator.random_raw
        row, n = divmod(_below(raw, len(self.rows) * H), H)
        row, n = self.rows[row], n + 1
        t, k = divmod(_below(raw, (H - n + 1) * n), n)
        s_next = row[t + 1]
        return TrainTuple._make((row[t], row[H + 1 + t], s_next,
                                 self.policy_actions[s_next],
                                 row[t + k + 1], n, k == 0))


def check_rows(mdp, rows):
    """Refuse a stored replay, an int64 array of one row per trajectory,
    with a one-line FormatError unless it holds at least one row, each of
    mdp's horizon, with every state and action in range."""
    H = mdp.horizon
    if not len(rows):
        raise FormatError("replay holds no trajectories")
    if rows.shape[1] != 2 * H + 1:
        raise FormatError("replay trajectories do not have the config's "
                          f"horizon {H}")
    for name, values, bound in (
            ("state", rows[:, :H + 1], mdp.n_states),
            ("action", rows[:, H + 1:], mdp.n_actions)):
        bad = values[(values < 0) | (values >= bound)]
        if bad.size:
            raise FormatError(f"replay {name} {bad[0]} out of range "
                              f"[0, {bound})")
