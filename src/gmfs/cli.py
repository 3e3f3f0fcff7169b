"""Command-line front end.

Subcommands: train, execute, sweep, diagnose, inspect. Exit codes: 0 success,
2 config error, 3 budget error, 4 diagnostic acceptance failure, 5 format
error (a truncated, corrupt or unknown q-table file), 6 I/O error (a path
that cannot be read or written: a missing config, environment or q-table
file, or an output in a missing directory).
"""

from __future__ import annotations

import argparse
import errno
import sys
import time
from dataclasses import replace
from pathlib import Path

from .bellman import load_qtable, save_qtable
from .diagnostics import SUITES
from .errors import BudgetError, ConfigError, FormatError, GmfsError
from .harness import (
    ExperimentConfig,
    _parse_seeds,
    _read_value,
    build_environment,
    build_system_weights,
    check_init,
    check_kappa,
    evaluate_table,
    parse_config,
    run_diagnostics,
    run_sweep,
    train_kappa,
    write_episodes_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_DIAGNOSTIC = 4
EXIT_FORMAT = 5
EXIT_IO = 6


def _load_config(path: str | None) -> ExperimentConfig:
    return parse_config(Path(path).read_text() if path is not None else "")


def _output_path(raw: str) -> Path:
    """``raw`` as a path, refused (OSError) when its directory is missing, so
    that a command fails before its work rather than after."""
    out = Path(raw)
    if not out.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, f"no directory {out.parent} for the output", raw)
    return out


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    out = _output_path(args.out)
    kappa = args.kappa if args.kappa is not None else cfg.kappa_list[0]
    if args.kappa is not None:
        cfg = replace(cfg, kappa_list=(kappa,))
    env = build_environment(cfg)
    q = train_kappa(cfg, env, kappa)
    save_qtable(q, out)
    print(f"trained kappa={kappa}: {q.iterations} sweeps, "
          f"residual {q.residual:.3e}, table entries {q.values.size}, "
          f"saved to {args.out}")
    return EXIT_OK


def cmd_execute(args) -> int:
    t0 = time.perf_counter()
    cfg = _load_config(args.config)
    out = _output_path(args.out)
    q = load_qtable(args.qtable)
    check_kappa(q.kappa, cfg.n)
    env = build_environment(cfg)
    check_init(cfg, env)
    if q.env_name and q.env_name != env.name:
        print(f"warning: q-table was trained on {q.env_name!r} but the config "
              f"builds {env.name!r}", file=sys.stderr)
    if args.seeds is not None:
        seeds = _read_value("command line", "--seeds", args.seeds, _parse_seeds)
        cfg = replace(cfg, seed_list=seeds)
    weights = build_system_weights(cfg)
    evaluation = evaluate_table(cfg, env, weights, q)
    write_episodes_csv(out, cfg, {q.kappa: evaluation.returns})
    print(f"executed {len(evaluation.returns)} episode(s) in "
          f"{time.perf_counter() - t0:.3f} s, mean discounted return "
          f"{evaluation.mean:.4f}, wrote {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    report = run_sweep(cfg, out_dir=args.out_dir)
    print(f"config {report.config_hash}; results in "
          f"{args.out_dir or cfg.out_dir}/sweep.csv")
    for row in report.rows:
        if row.status == "ok":
            print(f"  kappa={row.kappa:3d} size={row.table_size:6d} "
                  f"iters={row.train_iterations:3d} residual={row.train_residual:.2e} "
                  f"return={row.mean_return:.4f} +- {row.stderr_return:.4f}")
        else:
            print(f"  kappa={row.kappa:3d} FAILED: {row.error}")
    return EXIT_OK if report.ok() else EXIT_BUDGET


def cmd_diagnose(args) -> int:
    cfg = _load_config(args.config)
    results = run_diagnostics(cfg, args.suites, out_dir=args.out_dir)
    failed = False
    for name, result in results.items():
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {name}" + (f": {result.detail}" if result.detail else ""))
        failed = failed or not result.passed
    return EXIT_DIAGNOSTIC if failed else EXIT_OK


def cmd_inspect(args) -> int:
    q = load_qtable(args.qtable)
    print(f"mode={q.mode} |S|={q.n_states} |A|={q.n_actions} kappa={q.kappa}")
    print(f"gamma={q.gamma} residual={q.residual!r} seed={q.seed} env={q.env_name!r}")
    print(f"entries={q.values.size} sup_norm={q.sup_norm():.6f} "
          f"min={q.values.min():.6f} max={q.values.max():.6f} "
          f"mean={q.values.mean():.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmfs",
        description="Graphon mean-field subsampling: offline learning and "
                    "decentralized execution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="offline value iteration for one kappa")
    p.add_argument("--config", help="experiment config file (defaults to the benchmark)")
    p.add_argument("--kappa", type=int, help="subsample size (default: first of kappa_list)")
    p.add_argument("--out", required=True, help="output q-table path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("execute", help="run episodes under a trained policy")
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--qtable", required=True, help="trained q-table path")
    p.add_argument("--seeds", help="seeds as in a config's [execute] seeds: a count "
                                   "('30' is seeds 0..29), a range '0..30' or a list '0,1,2'")
    p.add_argument("--out", required=True, help="output episodes CSV")
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("sweep", help="train and evaluate every configured kappa")
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--out-dir", help="output directory (default from config)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="run property suites")
    p.add_argument("suites", nargs="+", choices=list(SUITES))
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--out-dir", help="output directory (default from config)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("inspect", help="print q-table header and statistics")
    p.add_argument("qtable", help="q-table path")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except GmfsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # its message names the path
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
