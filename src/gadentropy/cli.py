"""Command-line front end.

Subcommands: fig2, fig3 (preset sweeps, `sweep.py`), sweep --config <path>
(custom grid, `sweep.py`), check (the property suite of `check.py`, which
holds the sweeps' Bloch closed forms to the density-matrix reference).
Exit codes: 0 success, 1 usage/config error, 2 property-suite failure,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import check
from . import sweep as sw

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY_FAILURE = 2
EXIT_IO = 3


# Sweep flag, the config-file key it sets and its help; `sweep.settings` parses
# and checks its text as that key's, and `check --seed`'s as `seed`'s.
_FLAGS = (
    ("--shots", "shots", "tomography shots per projection basis"),
    ("--bootstrap", "n_bootstrap",
     "inert until it is retired: checked as before, but the error bars are closed-form"),
    ("--seed", "seed", "master RNG seed"),
    ("--out", "out", "output CSV path"),
    ("--r-points", "r_points", "number of uniform r-grid points on [0, 1]"),
)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors print one line; its subparsers
    are built from this class too."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        ("sweep", "run a sweep described by a config file"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "sweep":
            p.add_argument("--config", required=True, help="flat key-value config file")
        for flag, key, flag_help in _FLAGS:
            p.add_argument(flag, dest=key, metavar="PATH" if key == "out" else "N",
                           help=flag_help)
    p = sub.add_parser("check", help="run the aggregated property suite")
    p.add_argument("--seed", metavar="N", default="1234", help="master RNG seed")
    return parser


def _output_problem(path: str) -> str | None:
    """Why the CSV `path` or its `.meta.json` sidecar cannot be written, or None."""
    out_dir = os.path.dirname(path) or "."
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK | os.X_OK)):
        return f"{out_dir!r} is not a writable directory"
    limit = os.pathconf(out_dir, "PC_NAME_MAX")  # -1: no limit
    for target in (path, path + ".meta.json"):
        size = len(os.fsencode(os.path.basename(target)))
        if not size or os.path.isdir(target):
            return f"{target!r} names a directory, not a file"
        if 0 < limit < size:
            return (f"the file name of {target!r} is {size} bytes, "
                    f"over the {limit}-byte limit of {out_dir!r}")
    return None


def _run_and_emit(config: sw.SweepConfig) -> int:
    path = config.output_path
    problem = _output_problem(path)
    if problem:
        print(f"error: cannot write {path!r}: {problem}", file=sys.stderr)
        return EXIT_IO
    rows = sw.run_sweep(config)
    try:
        sw.emit_csv(rows, path, config)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(rows)} rows to {path}")
    print(sw.emit_summary(rows))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # so a reader that closed early shows up here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at exit stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


def _main(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        flags = sw.settings((flag, key, getattr(args, key)) for flag, key, _ in _FLAGS
                            if getattr(args, key, None) is not None)
        if args.command == "check":
            report = check.run_property_suite(seed=flags["seed"])
            print(report.render())
            return EXIT_OK if report.passed else EXIT_PROPERTY_FAILURE
        if args.command == "sweep":
            try:
                config = sw.load_config(args.config, **flags)
            except OSError as exc:
                print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
                return EXIT_IO
        else:
            config = (sw.fig2_config if args.command == "fig2" else sw.fig3_config)(**flags)
        return _run_and_emit(config)
    except sw.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
