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
"""

from collections import deque
from typing import NamedTuple


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
    """Bounded FIFO of trajectories over one environment/policy pair."""

    def __init__(self, mdp, policy, capacity):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.mdp = mdp
        # the policy's action in each state, as Python ints
        self.policy_actions = tuple(map(int, policy.table))
        self.trajectories = deque(maxlen=capacity)

    def __len__(self):
        return len(self.trajectories)

    def push_trajectory(self, traj):
        H = self.mdp.horizon
        if len(traj.actions) != H or len(traj.states) != H + 1:
            raise ValueError(f"trajectory does not have the horizon {H}")
        self.trajectories.append(traj)

    def sample_tuple(self, rng):
        """Uniform trajectory, uniform remaining horizon, uniform time index
        among those with enough steps left, uniform future offset."""
        if not self.trajectories:
            raise RuntimeError("cannot sample from an empty replay buffer")
        # two draws from the bit generator's raw words, each split into a
        # uniform pair: (trajectory, n - 1), then (t, k - 1) with k the
        # future offset
        H, raw = self.mdp.horizon, rng.bit_generator.random_raw
        traj, n = divmod(_below(raw, len(self.trajectories) * H), H)
        traj, n = self.trajectories[traj], n + 1
        t, k = divmod(_below(raw, (H - n + 1) * n), n)
        states = traj.states
        s_next = states[t + 1]
        return TrainTuple._make((states[t], traj.actions[t], s_next,
                                 self.policy_actions[s_next],
                                 states[t + k + 1], n, k == 0))
