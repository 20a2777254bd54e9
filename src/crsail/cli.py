"""Command-line entry point: run, sweep, summarize, plotdata."""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from crsail.exceptions import ConfigurationError
from crsail.harness import (
    ExperimentConfig,
    check_axis,
    emit_plot_data,
    format_summary_text,
    load_records,
    run,
    summarize,
    write_summary_csv,
)
from crsail.strategies import READS

OUTPUT_ROOT_ENV = "CRSAIL_OUTPUT_ROOT"


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config, overrides=args.set or [])
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(config.output_dir):
        config.output_dir = os.path.join(root, config.output_dir)
    return config


def _run_points(args, points) -> int:
    """Run each (label, config) point's grid, or with --print-config print its
    resolved config; a failed run is a `FAILED` line on stderr, and makes the
    exit status 1."""
    failed = False
    for label, config in points:
        if args.print_config:
            print(config.resolved_text())
            continue
        records, failures = run(config)
        for note in failures:
            print(f"FAILED {label}{note}", file=sys.stderr)
        print(f"completed {len(records)} run(s) -> {config.output_dir}")
        failed = failed or bool(failures)
    return 1 if failed else 0


def _cmd_run(args) -> int:
    return _run_points(args, [("", _load_config(args))])


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    axes = [("alpha", args.alpha), ("k", args.K)]
    chosen = [(name, vals) for name, vals in axes if vals]
    if len(chosen) != 1:
        print("sweep requires exactly one of --alpha/--K", file=sys.stderr)
        return 2
    name, raw = chosen[0]
    if name not in READS[config.strategy]:
        raise ConfigurationError(f"axis {name}: strategy {config.strategy} does not read {name}")
    given = [tok.strip() for tok in raw.split(",") if tok.strip()]
    # (label, config) of each value: each value is read as `--set` reads it,
    # and every point is checked before any runs
    points = []
    for val in given:
        sub = ExperimentConfig.from_file(args.config, [*(args.set or []), f"strategy.{name}={val}"])
        sub.output_dir = os.path.join(config.output_dir, f"{name}_{val}")
        points.append((f"[{name}={val}] ", sub))
    check_axis(f"axis {name}", [sub.strategy_params[name] for _, sub in points])
    return _run_points(args, points)


def _collect_records(args):
    """The directory's records; each skipped file is one line on stderr."""
    with warnings.catch_warnings(record=True) as skipped:
        warnings.simplefilter("always")
        records = load_records(args.directory)
    for warning in skipped:
        print(f"crsail {args.command}: {warning.message}", file=sys.stderr)
    if not records:
        print(f"no run records found in {args.directory}", file=sys.stderr)
    return records


def _cmd_summarize(args) -> int:
    records = _collect_records(args)
    if not records:
        return 1
    rows = summarize(records)
    write_summary_csv(rows, os.path.join(args.directory, "summary.csv"))
    print(format_summary_text(rows))
    return 0


def _cmd_plotdata(args) -> int:
    records = _collect_records(args)
    if not records:
        return 1
    outdir = args.out or os.path.join(args.directory, "plotdata")
    written = emit_plot_data(records, outdir)
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crsail",
        description="Active imitation learning experiments with conformal novelty gating",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("config", help="experiment config file (INI key=value)")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")
        p.add_argument("--print-config", action="store_true",
                       help="print the fully resolved config and exit")

    p_run = sub.add_parser("run", help="run the configured (M, seed) grid")
    add_config_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one hyperparameter axis")
    add_config_args(p_sweep)
    p_sweep.add_argument("--alpha", help="comma-separated miscoverage values")
    p_sweep.add_argument("--K", help="comma-separated neighbor orders")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sum = sub.add_parser("summarize", help="summarize run records in a directory")
    p_sum.add_argument("directory")
    p_sum.set_defaults(func=_cmd_summarize)

    p_plot = sub.add_parser("plotdata", help="emit plot-ready CSVs from run records")
    p_plot.add_argument("directory")
    p_plot.add_argument("--out", help="output directory (default: <dir>/plotdata)")
    p_plot.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv=None) -> int:
    """Run one command; bad input (a ConfigurationError) is one line on stderr and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"crsail {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
