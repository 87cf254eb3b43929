"""Comparison of the learned conditional sampler against the exact table:
total variation on decoded cells and the Q estimates their pmfs give."""

from dataclasses import dataclass

import numpy as np

from . import diffusion as df
from .bellman_loss import conditioning
from .errors import ShapeError
from .mdp import decode_states


@dataclass
class MetricsReport:
    rows: list          # dicts with s, a, n, tv, q_est, q_exact, q_abs_err,
                        # clamped_frac
    mean_tv: float
    mean_tv_by_n: dict  # n -> mean TV over the rows at horizon n
    max_tv: float
    mean_q_err: float
    max_q_err: float
    steps: int          # the reverse chain's step count


def empirical_pmf(samples, mdp):
    """Decode each sample vector to its nearest cell and normalize counts.
    Returns (pmf, clamped_frac), the latter the share of samples that
    decoding moved back onto the grid."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    cells, clamped = decode_states(mdp, samples)
    counts = np.bincount(cells, minlength=mdp.n_states)
    return counts / len(samples), float(np.mean(clamped))


def tv_distance(p, q):
    """Total variation between two pmfs, at most 1 even where rounding in
    the sum of two disjoint pmfs would give 1 + 2e-16."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ShapeError(f"pmf shapes differ: {p.shape} vs {q.shape}")
    return min(1.0, 0.5 * float(np.abs(p - q).sum()))


def sample_condition(trainer, s, a, n, num_samples, rng):
    """Draw decoded-space samples from the learned model at (s, a, n)."""
    sched = trainer.sample_sched
    return df.sample(sched, trainer.online,
                     conditioning(trainer, s, a, n, sched.tau), num_samples,
                     rng, trainer.chain_work)


def eval_model(trainer, mdp, oracle_table, eval_set, num_samples, rng):
    if not eval_set:
        raise ValueError("eval_set must be non-empty")
    rows = []
    for s, a, n in eval_set:
        samples = sample_condition(trainer, s, a, n, num_samples, rng)
        pmf, clamped_frac = empirical_pmf(samples, mdp)
        oracle_pmf = oracle_table.d[s, a, n - 1]
        q_est = float(pmf @ mdp.reward)
        q_exact = float(oracle_pmf @ mdp.reward)
        rows.append({
            "s": int(s), "a": int(a), "n": int(n),
            "tv": tv_distance(pmf, oracle_pmf),
            "q_est": q_est, "q_exact": q_exact,
            "q_abs_err": abs(q_est - q_exact),
            "clamped_frac": clamped_frac,
            "pmf": pmf.tolist(),
        })
    tvs = np.array([r["tv"] for r in rows])
    qerrs = np.array([r["q_abs_err"] for r in rows])
    tv_by_n = {n: float(np.mean([r["tv"] for r in rows if r["n"] == n]))
               for n in sorted({r["n"] for r in rows})}
    return MetricsReport(rows=rows, mean_tv=float(tvs.mean()),
                         mean_tv_by_n=tv_by_n,
                         max_tv=float(tvs.max()), mean_q_err=float(qerrs.mean()),
                         max_q_err=float(qerrs.max()),
                         steps=trainer.sample_sched.K)
