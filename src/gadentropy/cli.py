"""Command-line front end.

Commands: fig2, fig3 (preset sweeps, `sweep.py`), sweep --config <path>
(custom grid, `sweep.py`), check (`check.py`'s property suite, which holds the
sweeps' Bloch closed forms to the density-matrix reference; it prints the
report of `run_property_suite`'s (passed, report) and exits on passed); their
flags, in `_COMMANDS`, take `--flag value` or `--flag=value`.  Exit codes:
0 success, 1 usage/config error, 2 property-suite failure, 3 I/O failure.
"""

from __future__ import annotations

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
    ("--seed", "seed", "master RNG seed"),
    ("--out", "out", "output CSV path"),
    ("--r-points", "r_points", "number of uniform r-grid points on [0, 1]"),
)

# Command: its help and flags; sweep requires --config, which names a file, not a key.
_COMMANDS = {
    "fig2": ("sweep three bath temperatures at maximum initial coherence", _FLAGS),
    "fig3": ("sweep three initial coherences at fixed bath temperature", _FLAGS),
    "sweep": ("run a sweep described by a config file",
              (("--config", "config", "flat key-value config file (required)"), *_FLAGS)),
    "check": ("run the aggregated property suite, seed 1234 by default", _FLAGS[1:2]),
}


class _UsageError(Exception):
    """An argv that `_COMMANDS` does not take."""


def _read(argv: list[str]):
    """`argv` as (command, sweep's --config or None, flag settings); None after -h/--help."""
    if {"-h", "--help"} & set(argv):  # the usage of every command, built from `_COMMANDS`
        return print("\n".join(f"gadentropy {name}: {about}" + "".join(
            f"\n  {flag:<12} {text}" for flag, _, text in flags)
            for name, (about, flags) in _COMMANDS.items()))
    if not argv or argv[0] not in _COMMANDS:
        raise _UsageError(f"the first argument must be a command: {', '.join(_COMMANDS)}")
    command, tokens, triples = argv[0], iter(argv[1:]), []
    keys = {flag: key for flag, key, _ in _COMMANDS[command][1]}
    for token in tokens:
        flag, equals, text = token.partition("=")
        text = text if equals else next(tokens, None)
        if flag not in keys or text is None:
            raise _UsageError(f"{token!r}: {command} takes {', '.join(keys)}, each with a value")
        triples.append((flag, keys[flag], text))
    paths = [text for _, key, text in triples if key == "config"]
    if command == "sweep" and len(paths) != 1:
        raise _UsageError("sweep takes one --config PATH")
    return command, (paths or [None])[0], sw.settings(t for t in triples if t[1] != "config")


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
    if problem := _output_problem(path):
        print(f"error: cannot write {path!r}: {problem}", file=sys.stderr)
        return EXIT_IO
    try:  # one pass: each block of records is made, written and tallied in turn
        counts = sw.emit_csv(sw.blocks(config), path, config)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {counts['rows']} rows to {path}")
    print(sw.emit_summary(counts))
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
        command, path, flags = _read(sys.argv[1:] if argv is None else list(argv)) or [None] * 3
        if command is None:  # -h/--help printed the usage
            return EXIT_OK
        if command == "check":
            passed, report = check.run_property_suite(seed=flags.get("seed", 1234))
            print(report)
            return EXIT_OK if passed else EXIT_PROPERTY_FAILURE
        if command == "sweep":
            try:
                config = sw.load_config(path, **flags)
            except OSError as exc:
                print(f"error: cannot read {path}: {exc}", file=sys.stderr)
                return EXIT_IO
        else:
            config = (sw.fig2_config if command == "fig2" else sw.fig3_config)(**flags)
        return _run_and_emit(config)
    except _UsageError as exc:
        print(f"gadentropy: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except sw.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
