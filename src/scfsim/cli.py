"""Command-line entry point.

    scfsim run <experiment> [--config c.json] [--seed N] [--trials N]
               [--out path] [--format csv|json]
    scfsim validate [--config c.json] [--seed N]
    scfsim list

Worker processes for experiment points come from SCFSIM_WORKERS (default 1);
output files are byte-identical for any worker count.
"""

import argparse
import os
import sys

from .config import SimConfig, load_config
from .harness import EXPERIMENTS, emit_results, run_experiment
from .validation import desk_validation_config, run_invariant_checks, run_validation


def _load(args):
    cfg = load_config(args.config) if args.config else SimConfig()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    if getattr(args, "trials", None) is not None:
        cfg = cfg.replace(trials=args.trials)
    return cfg


def _cmd_run(args):
    cfg = _load(args)
    path = args.out or f"{args.experiment}.{args.format}"
    # before the run, so a path that cannot be written fails in seconds
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    table = run_experiment(args.experiment, cfg)
    emit_results(table, args.format, path)
    print(f"{args.experiment}: {len(table.rows)} rows -> {path}")
    return 0


def _cmd_validate(args):
    cfg = _load(args)
    if args.config is None:
        cfg = desk_validation_config(cfg)
    failures = []
    for check in run_validation(cfg, cfg.seed):
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}[{check.case}] closed={check.closed:.6g} "
              f"mc={check.monte_carlo:.6g} gap={check.rel_gap:.2%}")
        if not check.passed:
            failures.append(f"{check.name}[{check.case}]")
    for name, ok, detail in run_invariant_checks(cfg, cfg.seed):
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
        if not ok:
            failures.append(name)
    if failures:
        print(f"validation failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("validation passed")
    return 0


def _cmd_list(_args):
    for name in EXPERIMENTS:
        print(name)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="scfsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a named experiment")
    run_p.add_argument("experiment", choices=EXPERIMENTS)
    run_p.add_argument("--config", default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--trials", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="closed-form/MC oracle suite")
    val_p.add_argument("--config", default=None)
    val_p.add_argument("--seed", type=int, default=None)
    val_p.set_defaults(func=_cmd_validate)

    list_p = sub.add_parser("list", help="list experiment names")
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
