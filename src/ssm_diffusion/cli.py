"""Command-line entry points: train, eval, oracle.

Exit codes: 0 success, 2 invalid configuration, 3 checkpoint that does not
match the config (a digest mismatch without --override-digest, or any
structural mismatch), 1 other failure, including an unreadable or
malformed checkpoint, an --out path that cannot be written and a run too
large for memory.
"""

import argparse
import sys

import numpy as np

from .checkpoint import load_checkpoint
from .config import load_config
from .errors import ConfigurationError, FormatError, MismatchError, \
    NumericError
from .runner import restore_trainer, run_eval, run_training, \
    write_oracle_csvs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIGEST = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ssm-diffusion",
        description="Train and evaluate a diffusion model of a policy's "
                    "successor state measure on tabular gridworlds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run config-driven training")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--checkpoint", help="resume from this checkpoint")
    p_train.add_argument("--override-digest", action="store_true",
                         help="resume despite a config digest mismatch "
                              "(structural fields must still match)")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint vs the oracle")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--override-digest", action="store_true")

    p_oracle = sub.add_parser("oracle", help="dump the exact tables as CSV")
    p_oracle.add_argument("--config", required=True)
    p_oracle.add_argument("--out", required=True)
    return parser


def cmd_train(args):
    cfg = load_config(args.config)
    resume_ck = load_checkpoint(args.checkpoint) if args.checkpoint else None
    run_training(cfg, args.out, resume_ck=resume_ck,
                 override_digest=args.override_digest)
    return EXIT_OK


def cmd_eval(args):
    cfg = load_config(args.config)
    trainer = restore_trainer(cfg, load_checkpoint(args.checkpoint),
                              args.override_digest)
    report = run_eval(cfg, trainer, args.out)
    by_n = " ".join(f"tv_n{n}={tv:.4f}"
                    for n, tv in report.mean_tv_by_n.items())
    print(f"mean_tv={report.mean_tv:.4f} {by_n} max_tv={report.max_tv:.4f} "
          f"mean_q_err={report.mean_q_err:.4f} "
          f"max_q_err={report.max_q_err:.4f} steps={report.steps}")
    return EXIT_OK


def cmd_oracle(args):
    write_oracle_csvs(load_config(args.config), args.out)
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"train": cmd_train, "eval": cmd_eval, "oracle": cmd_oracle}
    try:
        # not NumPy's warnings but the finiteness checks report overflow
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIGEST
    except FormatError as exc:
        print(f"checkpoint format error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:   # a size within config's bounds, too large here
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
