"""Command-line front end.

Subcommands: fig2, fig3 (preset sweeps, `sweep.py`), sweep --config <path>
(custom grid, `sweep.py`), check (the property suite of `check.py`, which
holds the sweeps' Bloch closed forms to the density-matrix reference).
Exit codes: 0 success, 1 usage/config error, 2 property-suite failure,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import check
from . import sweep as sw

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY_FAILURE = 2
EXIT_IO = 3


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shots", type=int, default=None,
                        help="tomography shots per projection basis")
    parser.add_argument("--bootstrap", type=int, default=None,
                        help="bootstrap resamples for error bars")
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--out", type=str, default=None, help="output CSV path")
    parser.add_argument("--r-points", type=int, default=None,
                        help="number of uniform r-grid points on [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gadentropy",
        description=(
            "Entropy-production sweeps for a qubit in a generalized "
            "amplitude damping thermal channel"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fig2", "sweep three bath temperatures at maximum initial coherence"),
        ("fig3", "sweep three initial coherences at fixed bath temperature"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
    p = sub.add_parser("sweep", help="run a sweep described by a config file")
    p.add_argument("--config", required=True, help="flat key-value config file")
    _add_common_flags(p)
    p = sub.add_parser("check", help="run the aggregated property suite")
    p.add_argument("--seed", type=int, default=1234, help="master RNG seed")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    out: dict = {}
    if args.shots is not None:
        out["shots"] = args.shots
    if args.bootstrap is not None:
        out["n_bootstrap"] = args.bootstrap
    if args.seed is not None:
        out["seed"] = args.seed
    if args.out is not None:
        out["output_path"] = args.out
    if args.r_points is not None:
        out["r_grid"] = sw.uniform_r_grid(args.r_points)
    return out


def _run_and_emit(config: sw.SweepConfig) -> int:
    out_dir = os.path.dirname(config.output_path) or "."
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK | os.X_OK)):
        print(f"error: cannot write {config.output_path}: {out_dir!r} is not a "
              "writable directory", file=sys.stderr)
        return EXIT_IO
    rows = sw.run_sweep(config)
    try:
        sw.emit_csv(rows, config.output_path, config)
    except OSError as exc:
        print(f"error: cannot write {config.output_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(rows)} rows to {config.output_path}")
    print(sw.emit_summary(rows))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.command == "fig2":
            return _run_and_emit(sw.fig2_config(**_overrides(args)))
        if args.command == "fig3":
            return _run_and_emit(sw.fig3_config(**_overrides(args)))
        if args.command == "sweep":
            try:
                config = sw.load_config(args.config)
            except OSError as exc:
                print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
                return EXIT_IO
            config = dataclasses.replace(config, **_overrides(args))
            return _run_and_emit(config)
        if args.command == "check":
            if args.seed < 0:
                raise sw.ConfigError(f"seed must be >= 0, got {args.seed}")
            report = check.run_property_suite(seed=args.seed)
            print(report.render())
            return EXIT_OK if report.passed else EXIT_PROPERTY_FAILURE
    except sw.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
