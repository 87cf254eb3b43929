"""Exact successor-measure ground truth on tabular MDPs.

The finite-horizon table follows the flow recursion

    d(x | s, a, n) = E_{s'}[ (1/n) 1[s' = x] + ((n-1)/n) d(x | s', pi(s'), n-1) ]

whose solution is the uniform average of the 1..n step transition
distributions. A matrix-power computation of that average and a Monte Carlo
estimator serve as independent cross-checks.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class SsmTable:
    d: np.ndarray   # (S, A, n_max, S); d[s, a, n-1] is the pmf for horizon n


def exact_ssm(mdp, policy, n_max):
    """Dynamic programming over horizons 1..n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    T = mdp.transition
    S = mdp.n_states
    d = np.zeros((S, mdp.n_actions, n_max, S))
    d[:, :, 0, :] = T
    for n in range(2, n_max + 1):
        prev_pi = d[np.arange(S), policy.table, n - 2, :]   # (S, S)
        d[:, :, n - 1, :] = (T + (n - 1) * np.einsum("saj,jx->sax", T, prev_pi)) / n
    return SsmTable(d=d)


def ssm_matrix_power(mdp, policy, n_max):
    """Independent recomputation: uniform average of k-step distributions
    P(s_k = x | s_0=s, a_0=a) built from powers of the policy chain."""
    T = mdp.transition
    S = mdp.n_states
    P_pi = T[np.arange(S), policy.table, :]                 # (S, S)
    d = np.zeros((S, mdp.n_actions, n_max, S))
    step_k = T.copy()                                       # P(s_k | s, a_0=a)
    acc = np.zeros_like(T)
    for n in range(1, n_max + 1):
        acc += step_k
        d[:, :, n - 1, :] = acc / n
        step_k = step_k @ P_pi
    return SsmTable(d=d)


def mc_ssm(mdp, policy, s, a, n, num_rollouts, rng):
    """Empirical pmf: roll n steps from (s, a), record the state at a
    uniform offset in {1..n}. Vectorized over rollouts."""
    if num_rollouts < 1:
        raise ValueError(f"num_rollouts must be >= 1, got {num_rollouts}")
    if n > mdp.horizon:
        raise ValueError(f"n={n} exceeds horizon {mdp.horizon}")
    T = mdp.transition
    states = np.full(num_rollouts, s, dtype=int)
    visited = np.empty((num_rollouts, n), dtype=int)
    actions = np.full(num_rollouts, a, dtype=int)
    for step_idx in range(n):
        rows = np.cumsum(T[states, actions], axis=1)
        u = rng.random(num_rollouts)
        states = (rows < u[:, None]).sum(axis=1)
        visited[:, step_idx] = states
        actions = policy.table[states]
    picks = rng.integers(n, size=num_rollouts)
    chosen = visited[np.arange(num_rollouts), picks]
    counts = np.bincount(chosen, minlength=mdp.n_states)
    return counts / num_rollouts


def exact_q(table, mdp):
    """q[s, a, n-1] = sum_x d(x | s, a, n) R(x)."""
    return np.einsum("sanx,x->san", table.d, mdp.reward)
