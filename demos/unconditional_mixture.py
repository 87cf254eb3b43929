"""Train a small unconditional DDPM on a 1-D two-Gaussian mixture and
compare the sample histogram to the true density.

This is the smallest end-to-end use of the diffusion machinery: no MDP,
no conditioning beyond the step embedding, just forward noising, the
epsilon-prediction MLP, and reverse-chain sampling.

Usage:
    python3 demos/unconditional_mixture.py [--steps 5000] [--seed 0]
"""

import argparse
from math import erf

import numpy as np

from ssm_diffusion import approximator as ap
from ssm_diffusion import diffusion as df


def mixture_cdf(x, std=0.1):
    z = std * np.sqrt(2.0)
    return 0.5 * (0.5 * (1 + erf((x + 1) / z)) + 0.5 * (1 + erf((x - 1) / z)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=20000)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    # a fine schedule: narrow mixture components need small per-step noise
    sched = df.make_schedule(128, 1e-4, 0.05)
    net = ap.mlp_init([1 + 8, 64, 64, 1], seed=args.seed + 1)
    opt = ap.init_opt_state(net, lr=1e-3)
    # the context of an unconditional model is its step embedding alone
    step_rows = df.sinusoidal_embedding(np.arange(1, sched.K + 1), 8)
    batch = 128

    print(f"training for {args.steps} steps (K={sched.K}) ...")
    for step in range(args.steps):
        comp = rng.integers(2, size=(batch, 1))
        x0 = np.where(comp == 0, -1.0, 1.0) \
            + 0.1 * rng.standard_normal((batch, 1))
        eps = rng.standard_normal((batch, 1))
        ivals = rng.integers(1, sched.K + 1, size=batch)
        inputs = df.net_input(df.forward_noise(sched, x0, ivals, eps),
                              step_rows.take(ivals - 1, axis=0))
        out, activations = ap.mlp_forward(net, inputs)
        grads = ap.mlp_backward(net, activations, (2.0 / batch) * (out - eps))
        net, opt = ap.opt_step(net, grads, opt)
        if (step + 1) % 1000 == 0:
            loss = float(np.mean((out - eps) ** 2))
            print(f"  step {step + 1}: batch loss {loss:.4f}")

    print(f"sampling {args.samples} points ...")
    samples = df.sample(sched, net, step_rows, args.samples,
                        np.random.default_rng(args.seed + 2))[:, 0]

    edges = np.linspace(-1.5, 1.5, 102)
    hist, _ = np.histogram(np.clip(samples, -1.4999, 1.4999), bins=edges)
    emp = hist / hist.sum()
    true = np.diff([mixture_cdf(e) for e in edges])
    true = true / true.sum()
    tv = 0.5 * np.abs(emp - true).sum()

    print(f"\nTV(empirical, true) over 101 bins: {tv:.4f}")
    print("\nhistogram (model | true), 30 coarse bins:")
    coarse_emp = emp.reshape(-1)[:99].reshape(33, 3).sum(axis=1)
    coarse_true = true[:99].reshape(33, 3).sum(axis=1)
    peak = max(coarse_emp.max(), coarse_true.max())
    for k in range(33):
        lo = -1.5 + k * (3.0 / 101 * 3)
        bar_m = "#" * int(40 * coarse_emp[k] / peak)
        bar_t = "#" * int(40 * coarse_true[k] / peak)
        print(f"  {lo:+.2f}  {bar_m:<40} | {bar_t}")


if __name__ == "__main__":
    main()
