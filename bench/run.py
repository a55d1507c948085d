"""gadentropy benchmark: end-to-end metrics, or per-module metrics when traced.

Usage, from the repository root:

    python3 bench/run.py --workload {fig2,grid,verify} --seed N --seconds S --trace {0,1}

Workloads (the program sees only the CLI argv and config file made here):

- fig2: `gadentropy fig2` at its defaults (3 p x 1 coherence x 21 r = 63 rows,
  10^4 shots, 200 bootstrap resamples).  Dominated by the bootstrap's
  entropy functionals.
- grid: `gadentropy sweep --config <generated>` on 11 p (0.5..1, p = 1
  included) x 5 coherences x 101 r = 5555 rows, 2 bootstrap resamples.
  Dominated by per-row fixed cost; 505 rows are indeterminate (p = 1).
- verify: `gadentropy check`, then the Lindblad-vs-Kraus cross-check over
  nbar in {0, 0.125, 1} x t in {0.1, 0.5, 1, 2} (18,900 RK4 steps).

A fresh worker process (bench/worker.py) runs the workload repeatedly for
--seconds and nothing else.  This process checks every iteration's output
against the independent oracle (bench/oracle.py) and prints, as its last
stdout line, {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are end to end; with --trace 1 they are per module, from
bench/spans.py.  An operation is one CSV row (fig2, grid), or one property
or one RK4 case (verify).  Outputs and run records go to .bench_out/.

Workload times are rescaled to the reference machine speed measured by
bench/probe.py right before and after each iteration (see there why); the
raw times and probe times are kept in the run record.  setup_s is the raw
median of eight fresh-interpreter imports, four before the workload and
four after.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread (capped at nproc, as every setting here must be): the
# package does only 2x2 linear algebra, and starting OpenBLAS's thread pool
# made the import time bimodal (0.11 s vs 0.18 s on a 2-vCPU host).
NPROC = len(os.sched_getaffinity(0))
BLAS = {var: str(min(1, NPROC)) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                            "MKL_NUM_THREADS")}
os.environ.update(BLAS)  # before numpy loads; the worker processes inherit it

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from probe import REFERENCE_S  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 4  # before and again after the workload
RUN_LIMIT_S = 170  # the whole run must end within 180 s

FIG2_SWEEP = ((0.9, 0.75, 0.6), (1.0,), 21, 200)
GRID_SWEEP = (tuple(0.5 + 0.05 * i for i in range(10)) + (1.0,),
             (1.0, 0.8, 0.6, 0.4, 0.2), 101, 2)
GRID_SHOTS = 10_000
CHECK_PROPERTIES = 8
RK4_NBAR = (0.0, 0.125, 1.0)
RK4_TIMES = (0.1, 0.5, 1.0, 2.0)

# Per-layer metrics printed by a traced run, as (name, unit).  Names ending
# in .calls, and the counters, must repeat exactly for a given seed.
LAYER_TIMED = {
    "qstate.relative_entropy": ("calls", "s"),
    "qstate.von_neumann_entropy": ("calls", "s"),
    "tomography.reconstruct_with_errors": ("calls", "s", "self_s"),
    "tomography.simulate_counts": ("calls", "s"),
    "tomography.project_to_physical": ("calls", "s"),
    "budget.budget": ("calls", "s", "self_s"),
    "budget.total_production": ("calls", "s"),
    "budget.population_production": ("calls", "s"),
    "channel.apply": ("calls", "s"),
    "channel.evolve_master_equation": ("calls", "s"),
    "channel.lindblad_derivative": ("calls",),
    "prep.prepare": ("calls", "s"),
    "prep.evolved_closed_form": ("calls",),
    "sweep.run_sweep": ("s", "self_s"),
    "sweep.load_config": ("s",),
    "sweep.emit_csv": ("s",),
    "sweep.emit_summary": ("s",),
    "sweep.run_property_suite": ("s", "self_s"),
    "cli.main": ("s",),
}
LAYER_COUNTERS = {
    "qstate.QubitState.constructed": "count",
    "tomography.bootstrap_states": "count",
    "budget.indeterminate": "count",
    "budget.nonfinite": "count",
    "channel.rk4_steps": "count",
    "sweep.emit_csv.bytes": "bytes",
}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    """Hash of the package sources: identifies the code under test."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "gadentropy")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def measure_setup(env: dict, repeats: int) -> list[float]:
    """Import times of gadentropy in fresh interpreters.  Not rescaled: the
    speed probe did not track import time, which is mostly file and
    page-fault work."""
    code = ("import time; t = time.perf_counter(); import gadentropy; "
            "print(repr(time.perf_counter() - t)); print(gadentropy.__file__)")
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import gadentropy failed:\n{proc.stderr}")
        seconds, where = proc.stdout.split("\n")[:2]
        if not os.path.abspath(where).startswith(SRC + os.sep):
            raise RuntimeError(f"gadentropy imported from {where}, not {SRC}")
        samples.append(float(seconds))
    return samples


def build_spec(workload: str, program_seed: int, workdir: str, seconds: int, trace: bool):
    """The worker spec, plus the oracle's view of the expected output."""
    csv_path = os.path.join(workdir, "iter{k}.csv")
    spec = {"src": SRC, "seconds": seconds, "trace": trace, "rk4_cases": []}
    if workload == "fig2":
        spec["argv"] = ["fig2", "--seed", str(program_seed), "--out", csv_path]
        sweep = FIG2_SWEEP
    elif workload == "grid":
        p_values, coherences, r_points, n_bootstrap = GRID_SWEEP
        config = os.path.join(workdir, "grid.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(
                "scenario = custom\n"
                f"p_values = {', '.join(repr(p) for p in p_values)}\n"
                f"coherence = {', '.join(repr(c) for c in coherences)}\n"
                f"r_points = {r_points}\n"
                f"shots = {GRID_SHOTS}\n"
                f"n_bootstrap = {n_bootstrap}\n"
                f"seed = {program_seed}\n"
            )
        spec["argv"] = ["sweep", "--config", config, "--out", csv_path]
        sweep = GRID_SWEEP
    else:
        spec["argv"] = ["check", "--seed", str(program_seed)]
        spec["rk4_cases"] = [
            {"nbar": nbar, "omega_s": 1.0, "temperature": oracle.nbar_temperature(nbar),
             "gamma0": 1.0, "t": t}
            for nbar in RK4_NBAR for t in RK4_TIMES
        ]
        return spec, None
    p_values, coherences, r_points, n_bootstrap = sweep
    return spec, (np.array(p_values), np.array(coherences),
                  np.linspace(0.0, 1.0, r_points), n_bootstrap)


def check_sweep_iteration(it: dict, grid) -> tuple[dict, str | None]:
    """Oracle check of one fig2/grid iteration; returns (check, csv sha256)."""
    expected = grid[0].size * grid[1].size * grid[2].size
    if it.get("rc") != 0:
        return {"attempted": expected, "failed": expected,
                "reasons": [f"exit {it.get('rc')}: {it.get('error', '')}"]}, None
    path = it["argv"][it["argv"].index("--out") + 1]
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return {"attempted": expected, "failed": expected, "reasons": [str(exc)]}, None
    return (oracle.check_sweep_csv(data.decode("utf-8", errors="replace"), grid),
            hashlib.sha256(data).hexdigest())


def check_verify_iteration(it: dict, cases: list) -> tuple[dict, str]:
    """Property-suite report plus the RK4 cases against the closed form."""
    lines = re.findall(r"^\[(PASS|FAIL)\] ", it.get("stdout", ""), flags=re.M)
    reasons = []
    failed_props = lines.count("FAIL") + max(0, CHECK_PROPERTIES - len(lines))
    if it.get("rc") != 0 and failed_props == 0:
        failed_props = max(CHECK_PROPERTIES, len(lines))
    if failed_props:
        reasons.append(f"check: exit {it.get('rc')}, {failed_props} properties failed "
                       f"{it.get('error', '')}")
    failed_cases = 0
    for case, res in zip(cases, it.get("rk4", [])):
        if "error" in res:
            failed_cases += 1
            reasons.append(f"rk4 {case}: {res['error']}")
            continue
        p, r = oracle.thermal_channel(case["nbar"], case["gamma0"], case["t"])
        want = oracle.gad_apply(np.array([1.0, 0.0, 0.0]), p, r)
        worst = {}
        for key, tol in (("rk4", 2 * oracle.RK4_TOL), ("kraus", 2 * oracle.KRAUS_TOL)):
            m = np.array(res[key])
            m = m[..., 0] + 1j * m[..., 1]
            unphysical = max(abs(np.trace(m) - 1.0), np.max(np.abs(m - m.conj().T)))
            worst[key] = float(np.max(np.abs(oracle.bloch_of_matrix(m) - want)))
            if not (worst[key] <= tol and unphysical <= 1e-9):
                failed_cases += 1
                reasons.append(f"rk4 {case}: {key} off the closed form by {worst[key]:.3e}")
                break
    failed_cases += max(0, len(cases) - len(it.get("rk4", [])))
    attempted = max(CHECK_PROPERTIES, len(lines)) + len(cases)
    digest = hashlib.sha256(
        (it.get("stdout", "") + json.dumps(it.get("rk4", []))).encode()).hexdigest()
    return {"attempted": attempted, "failed": failed_props + failed_cases,
            "reasons": reasons}, digest


def layer_metrics(traced: list[dict], untraced_walls: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced iterations, times rescaled to the
    reference speed) and their exact counts."""
    metrics, counts_per_iter = {}, []
    for it in traced:
        fns, counters = it["trace"]["functions"], it["trace"]["counters"]
        counts = {f"{name}.calls": fns.get(name, {}).get("calls", 0) for name in LAYER_TIMED}
        counts.update({name: counters.get(name, 0) for name in LAYER_COUNTERS})
        counts["tomography.project_to_physical.inputs"] = counters.get(
            "tomography.project_inputs", 0)
        counts["tomography.projected"] = counters.get("tomography.projected", 0)
        counts_per_iter.append(counts)
    counts = counts_per_iter[0]

    def median_of(name, field):
        return statistics.median(
            it["trace"]["functions"].get(name, {}).get(field, 0.0) * it["scale"]
            for it in traced)

    for name, fields in LAYER_TIMED.items():
        for field in fields:
            key = f"{name}.{field}"
            if field == "calls":
                metrics[key] = {"value": counts[key], "unit": "count"}
            else:
                metrics[key] = {"value": median_of(name, field), "unit": "s"}
    for name, unit in LAYER_COUNTERS.items():
        metrics[name] = {"value": counts[name], "unit": unit}
    inputs = counts["tomography.project_to_physical.inputs"]
    metrics["tomography.projected_frac"] = {
        "value": counts["tomography.projected"] / inputs if inputs else 0.0, "unit": "ratio"}
    traced_wall = statistics.median(it["wall_s"] * it["scale"] for it in traced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced_wall - statistics.median(untraced_walls), "unit": "s"}
    repeat_ok = all(c == counts for c in counts_per_iter)
    return metrics, {"counts": counts, "repeat_within_run": repeat_ok}


def check_repeat(key: str, record: dict) -> list[str]:
    """Same code and seed must give the same output bytes and the same counts
    as every earlier run in this checkout."""
    path = os.path.join(OUT, "repeat", key + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    stored = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    problems = []
    for field in ("output_sha256", "counts"):
        if record.get(field) is None:
            continue
        if field in stored and stored[field] != record[field]:
            problems.append(f"{field} differs from an earlier run with the same code and seed")
        else:
            stored[field] = record[field]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fig2", "grid", "verify"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "gadentropy", "__init__.py")):
        print(f"error: no package source at {SRC}/gadentropy", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=SRC)
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    program_seed = int(np.random.SeedSequence(args.seed).generate_state(1)[0] >> 1)
    spec, grid = build_spec(args.workload, program_seed, workdir, args.seconds, bool(args.trace))
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)

    try:
        measure_setup(env, 1)  # warm-up: compiles bytecode in a fresh checkout
        setup = measure_setup(env, SETUP_REPEATS)
        timeout = RUN_LIMIT_S - 10 - (time.perf_counter() - started)
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                               spec_path, result_path], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
        setup += measure_setup(env, SETUP_REPEATS)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    iterations = result["iterations"]

    attempted = failed = 0
    reasons, digests = [], set()
    for it in iterations:
        if args.workload == "verify":
            check, digest = check_verify_iteration(it, spec["rk4_cases"])
        else:
            check, digest = check_sweep_iteration(it, grid)
        attempted += check["attempted"]
        failed += check["failed"]
        reasons += check["reasons"]
        digests.add(digest)
        it.pop("stdout", None)
        it["check"] = {k: v for k, v in check.items() if k != "reasons"}
    ops = check["attempted"]  # operations in one iteration
    output_sha = next(iter(digests)) if len(digests) == 1 else None
    if output_sha is None:
        reasons.append(f"same-seed iterations wrote {len(digests)} different outputs")
        failed = max(failed, 1)

    for it in iterations:
        it["scale"] = REFERENCE_S / it["probe_s"]
    untraced_walls = [it["wall_s"] * it["scale"] for it in iterations if not it["traced"]]
    if args.trace:
        metrics, counts = layer_metrics([it for it in iterations if it["traced"]],
                                        untraced_walls)
        if not counts["repeat_within_run"]:
            reasons.append("counts differ between traced iterations with the same seed")
        counts = counts["counts"]
    else:
        wall = statistics.median(untraced_walls)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": ops / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
        counts = None
    src_sha = source_sha256()
    reasons += check_repeat(f"{args.workload}-seed{args.seed}-{src_sha[:16]}",
                            {"output_sha256": output_sha, "counts": counts})
    reasons = list(dict.fromkeys(reasons))  # iterations repeat the same findings
    correct = failed == 0 and not reasons

    record = {
        "workload": args.workload, "seed": args.seed, "program_seed": program_seed,
        "seconds": args.seconds, "trace": args.trace,
        "context": {
            "nproc": NPROC, "python": platform.python_version(),
            "numpy": result["numpy_version"], "machine": platform.machine(),
            "git_sha": git_sha(), "src_sha256": src_sha, "blas_threads": BLAS,
        },
        "output_sha256": output_sha,
        "setup_samples_s": setup,
        "iterations": [{k: it[k] for k in ("wall_s", "probe_s", "traced", "check")} for it in iterations],
        "reasons": reasons,
        "counts": counts,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(record, metrics=metrics,
                       traces=[it["trace"] for it in iterations if it["traced"]]), fh, indent=1)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "program_seed", "context",
                                             "output_sha256", "reasons")}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
