"""Runs one benchmark workload repeatedly in a fresh interpreter.

Usage: python3 bench/worker.py <spec.json> <result.json>

The spec (written by bench/run.py) names the package source directory, the
CLI argv of each iteration, the Lindblad-vs-Kraus cases, how long to run
and whether to trace.  This process runs nothing but the workload, so its
peak resident memory is the workload's.  Outputs are checked by run.py,
not here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

from probe import probe as speed_probe

MIN_UNTRACED = 3  # a median of at least three iterations
MIN_TRACED = 2  # two traced iterations, so counts can be compared


def _matrix(state) -> list:
    return [[[complex(v).real, complex(v).imag] for v in row] for row in state.matrix]


def _run_cli(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a failed operation, reported and counted by run.py
        return {"rc": None, "error": f"{type(exc).__name__}: {exc}", "stdout": out.getvalue()}
    return {"rc": rc, "stdout": out.getvalue()}


def _run_rk4(channel, plus, cases: list) -> list:
    results = []
    for case in cases:
        try:
            bath = channel.BathSpec(omega_s=case["omega_s"], temperature=case["temperature"],
                                    gamma0=case["gamma0"])
            integrated = channel.evolve_master_equation(bath, plus, case["t"])
            kraus = channel.apply(channel.channel_for(bath, case["t"]), plus)
            results.append({"rk4": _matrix(integrated), "kraus": _matrix(kraus)})
        except Exception as exc:  # counted as a failed case by run.py
            results.append({"error": f"{type(exc).__name__}: {exc}"})
    return results


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    import gadentropy
    import gadentropy.cli  # noqa: F401  (the package __init__ does not load it)

    if not os.path.abspath(gadentropy.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"gadentropy imported from {gadentropy.__file__}, not {spec['src']}", file=sys.stderr)
        return 2

    # Look the modules up on every call, so the tracer's patches are seen.
    modules = sys.modules
    plus = modules["gadentropy.qstate"].PLUS

    tracer_cls = None
    if spec["trace"]:
        from spans import Tracer as tracer_cls  # noqa: N813

    iterations = []
    probe = speed_probe()
    start = time.perf_counter()
    while True:
        k = len(iterations)
        # Traced mode alternates traced and untraced iterations (T, U, T, ...),
        # so both see the same machine state; their difference is the overhead.
        traced = tracer_cls is not None and k % 2 == 0
        argv = [a.replace("{k}", str(k)) for a in spec["argv"]]
        tracer = tracer_cls() if traced else None
        with tracer if tracer else contextlib.nullcontext():
            t = time.perf_counter()
            record = _run_cli(modules["gadentropy.cli"], argv)
            if spec["rk4_cases"]:
                record["rk4"] = _run_rk4(modules["gadentropy.channel"], plus, spec["rk4_cases"])
            record["wall_s"] = time.perf_counter() - t
        after = speed_probe()
        record["probe_s"] = (probe + after) / 2.0
        probe = after
        record["traced"] = traced
        record["argv"] = argv
        if tracer:
            record["trace"] = tracer.report()
        iterations.append(record)

        n_traced = sum(1 for it in iterations if it["traced"])
        n_untraced = len(iterations) - n_traced
        enough = (n_traced >= MIN_TRACED and n_untraced >= 1) if tracer_cls else (
            n_untraced >= MIN_UNTRACED)
        if enough and time.perf_counter() - start >= spec["seconds"]:
            break

    result = {
        "numpy_version": sys.modules["numpy"].__version__,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "iterations": iterations,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
