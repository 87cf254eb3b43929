"""Benchmark entry point.

    python3 perfbench/run.py --workload train_headline --seed 1 \\
        --seconds 30 --trace 0 [--blas-threads 1]

Runs one workload of `workloads.py` in this process against the package
under `src/` of the checkout that holds this file, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end ones, in seconds of a quiet host
(see `workloads.HostGauge`), with `--trace 1` the per-layer ones of a traced
run. Lines before it record the run's environment (nproc, Python, NumPy
and OpenBLAS versions, the BLAS thread count and the seed) and, untraced,
the timings before correction with the run's median host factor. A traced run also writes every span it kept to
`.perfbench_out/` in the checkout.

The BLAS thread count is fixed before NumPy loads, because it changes the
result: large-batch eval is matmul-bound. One thread is the steady choice on
a 2-vCPU host: a second OpenBLAS thread spins on the CPU that every other
process needs, and one competing process then slows small-batch training
by 2.5x, where with one thread it does not slow it at all.
"""

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("train_headline", "eval_headline", "learn_small")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.blas_threads < 1:
        parser.error("--seconds and --blas-threads must be positive")
    return args


def blas_version(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ssm_diffusion",
                                       "__init__.py")):
        print(f"error: no ssm_diffusion package under {ROOT}/src",
              file=sys.stderr)
        return 2
    threads = min(args.blas_threads, os.cpu_count() or 1)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np
    import workloads

    if args.trace:
        out, tracer = workloads.traced_run(args.workload, args.seed)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"trace_{args.workload}_seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        out = workloads.WORKLOADS[args.workload](args.seed, args.seconds)

    env = {"nproc": os.cpu_count(), "blas_threads": threads,
           "python": platform.python_version(), "numpy": np.__version__,
           "blas": blas_version(np), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print("# env " + json.dumps(env, sort_keys=True))
    if out.raw:
        print("# uncorrected " + json.dumps(out.raw, sort_keys=True))
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
