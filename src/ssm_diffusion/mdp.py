"""Finite-horizon tabular gridworld, fixed deterministic policies, and
trajectory collection.

States are cells indexed s = cy * width + cx. Actions: 0=up, 1=down,
2=left, 3=right ("down" increases cy). A move succeeds with probability
p_move, otherwise the agent stays; moving into a wall also stays.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError

N_ACTIONS = 4
ACTION_DELTAS = ((0, -1), (0, 1), (-1, 0), (1, 0))  # up, down, left, right


@dataclass
class TabularMdp:
    width: int
    height: int
    n_states: int
    n_actions: int
    transition: np.ndarray  # (S, A, S)
    reward: np.ndarray      # (S,)
    horizon: int
    start: object = "uniform"  # "uniform" or a fixed state index


@dataclass
class Policy:
    table: np.ndarray       # the deterministic action in each state


@dataclass
class Trajectory:
    """One episode as tuples of Python ints, which replay indexes per row
    without converting a NumPy scalar."""
    states: tuple           # s_0 .. s_H
    actions: tuple          # a_0 .. a_{H-1}
    episode_id: int = 0


def gridworld_new(width, height, p_move=1.0, horizon=8, reward=None,
                  start="uniform"):
    # Python ints, which replay's exact integer draws need: a NumPy
    # integer's product with a 64-bit word overflows
    width, height, horizon = map(operator.index, (width, height, horizon))
    if width < 1 or height < 1:
        raise ConfigurationError(f"grid dims must be >= 1, got {width}x{height}")
    if not 0.0 < p_move <= 1.0:
        raise ConfigurationError(f"p_move must be in (0, 1], got {p_move}")
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    n_states = width * height
    T = np.zeros((n_states, N_ACTIONS, n_states))
    for s in range(n_states):
        cx, cy = s % width, s // width
        for a, (dx, dy) in enumerate(ACTION_DELTAS):
            nx, ny = cx + dx, cy + dy
            if 0 <= nx < width and 0 <= ny < height:
                s2 = ny * width + nx
            else:
                s2 = s  # blocked by wall
            T[s, a, s2] += p_move
            T[s, a, s] += 1.0 - p_move
    if reward is None:
        reward = np.zeros(n_states)
    reward = np.asarray(reward, dtype=float)
    if reward.shape != (n_states,) or not np.all(np.isfinite(reward)):
        raise ConfigurationError("reward must be a finite vector of length S")
    if start != "uniform" and not 0 <= int(start) < n_states:
        raise ConfigurationError(f"start state {start} out of range")
    return TabularMdp(width=width, height=height, n_states=n_states,
                      n_actions=N_ACTIONS, transition=T, reward=reward,
                      horizon=horizon, start=start)


def goal_reward(width, height, goal_cell):
    """Indicator reward at one cell, as a length-S vector."""
    gx, gy = goal_cell
    r = np.zeros(width * height)
    r[gy * width + gx] = 1.0
    return r


def policy_fixed_action(mdp, action):
    if not 0 <= action < mdp.n_actions:
        raise ConfigurationError(f"action {action} out of range")
    return Policy(table=np.full(mdp.n_states, action, dtype=int))


def policy_toward_goal(mdp, goal_cell):
    """Move horizontally toward the goal column first, then vertically."""
    gx, gy = goal_cell
    table = np.zeros(mdp.n_states, dtype=int)
    for s in range(mdp.n_states):
        cx, cy = s % mdp.width, s // mdp.width
        if cx < gx:
            table[s] = 3
        elif cx > gx:
            table[s] = 2
        elif cy < gy:
            table[s] = 1
        else:
            table[s] = 0
    return Policy(table=table)


def step(mdp, s, a, rng):
    """Draw s' from T(.|s, a)."""
    if not 0 <= s < mdp.n_states:
        raise IndexError(f"state {s} out of range")
    if not 0 <= a < mdp.n_actions:
        raise IndexError(f"action {a} out of range")
    row = mdp.transition[s, a]
    return int(np.searchsorted(np.cumsum(row), rng.random(), side="right"))


def rollout(mdp, policy, rng, start=None, episode_id=0):
    """One full-horizon episode following the policy."""
    if start is None:
        start = mdp.start
    if start == "uniform":
        s = int(rng.integers(mdp.n_states))
    else:
        s = int(start)
    states = [s]
    actions = []
    for _ in range(mdp.horizon):
        a = int(policy.table[s])
        actions.append(a)
        s = step(mdp, s, a, rng)
        states.append(s)
    return Trajectory(states=tuple(states), actions=tuple(actions),
                      episode_id=episode_id)


def encode_state(mdp, s):
    """Cell center in [-1, 1]^2 (a degenerate axis maps to 0); a vector of
    states gives one row per state."""
    s = np.asarray(s)
    if s.dtype.kind not in "iu" or np.any(s < 0) or np.any(s >= mdp.n_states):
        raise IndexError(f"state {s} out of range")
    cx, cy = s % mdp.width, s // mdp.width
    vx = -1.0 + 2.0 * cx / (mdp.width - 1) if mdp.width > 1 else 0.0 * cx
    vy = -1.0 + 2.0 * cy / (mdp.height - 1) if mdp.height > 1 else 0.0 * cy
    return np.stack([vx, vy], axis=-1)


def decode_states(mdp, vs):
    """Nearest cell center of each row of a (batch, 2) array of samples,
    clamped to the grid. Returns (cells, clamped), where clamped marks the
    rows whose nearest cell center lay off the grid."""
    vs = np.asarray(vs, dtype=float)
    if not np.all(np.isfinite(vs)):
        raise NumericError("non-finite sample values")
    # a degenerate axis scales to 0 and clamps to its one cell
    rx = np.rint((vs[:, 0] + 1.0) * (mdp.width - 1) / 2.0)
    ry = np.rint((vs[:, 1] + 1.0) * (mdp.height - 1) / 2.0)
    cx = np.clip(rx, 0, mdp.width - 1)
    cy = np.clip(ry, 0, mdp.height - 1)
    clamped = (cx != rx) | (cy != ry)
    return cy.astype(int) * mdp.width + cx.astype(int), clamped


def encode_action(mdp, a):
    """One-hot action; a vector of actions gives one row per action."""
    a = np.asarray(a)
    if np.any(a < 0) or np.any(a >= mdp.n_actions):
        raise IndexError(f"action {a} out of range")
    return np.eye(mdp.n_actions)[a]
