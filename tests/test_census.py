"""Census of the package's public functions, and of what the 2x2 reference
imports.

A public function or method that no product run calls is one more path to
keep and test.  The product runs below (the CLI's sweeps and `check`, and the
benchmark's Lindblad-vs-Kraus pair) are traced in a fresh interpreter; every
public function they never call must be listed with the reader that keeps it.
A function that only tests call fails this test until it is deleted or
listed."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import gadentropy

SRC = pathlib.Path(gadentropy.__file__).resolve().parent

UNCALLED = {
    "budget.budget": "bench/test_oracle.py scores the benchmark's oracle against it",
    "channel.equilibrium_state": "bench/test_oracle.py reads it",
    "prep.prepare": "bench/test_oracle.py reads it",
    "qstate.QubitState.from_bloch": "bench/test_oracle.py reads it",
    "qstate.QubitState.bloch_vector": "bench/test_oracle.py reads it",
    "qstate.relative_entropy": "bench/test_oracle.py reads it",
    "qstate.relative_entropies": "`relative_entropy` wraps it for bench/test_oracle.py, and "
                                 "the tests hold the closed forms to it as the eigh reference",
}

# Runs fig2, fig3, a config sweep (alpha_deg and r_grid keys), `check` and
# bench/worker.py's RK4 pair under a profiler, then prints, as JSON, every
# public function and method of `gadentropy.*` whose code never ran.
CENSUS = r"""
import contextlib, importlib, inspect, io, json, pkgutil, sys

import gadentropy, gadentropy.cli

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


with open("sweep.cfg", "w", encoding="utf-8") as fh:
    fh.write("scenario = custom\np_values = 0.9, 1.0\nalpha_deg = 0, 9.22\n"
             "r_grid = 0, 0.5, 1\nshots = 100\nseed = 7\n")
small = ["--shots", "100", "--r-points", "3"]
runs = (["fig2", *small, "--out", "fig2.csv"], ["fig3", *small, "--out", "fig3.csv"],
        ["sweep", "--config", "sweep.cfg", "--out", "sweep.csv"], ["check", "--seed", "0"])
channel, qstate = sys.modules["gadentropy.channel"], sys.modules["gadentropy.qstate"]
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [gadentropy.cli.main(argv) for argv in runs]
bath = channel.BathSpec(omega_s=1.0, temperature=1.0, gamma0=1.0)
channel.evolve_master_equation(bath, qstate.PLUS, 0.5)
channel.apply(channel.channel_for(bath, 0.5), qstate.PLUS)
sys.setprofile(None)
assert codes == [0, 0, 0, 0], codes

public = {}
for info in pkgutil.iter_modules(gadentropy.__path__):
    module = importlib.import_module(f"gadentropy.{info.name}")
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        where = f"{info.name}.{name}"
        if inspect.isfunction(obj):
            public[where] = obj.__code__
        elif inspect.isclass(obj):
            for method, attr in vars(obj).items():
                attr = getattr(attr, "__func__", getattr(attr, "fget", attr))
                if not method.startswith("_") and inspect.isfunction(attr):
                    public[f"{where}.{method}"] = attr.__code__
print(json.dumps(sorted(name for name, code in public.items() if code not in called)))
"""


def test_every_public_function_has_a_product_caller(tmp_path):
    # A fresh interpreter, because the tests themselves call everything.
    result = subprocess.run([sys.executable, "-c", CENSUS], cwd=tmp_path, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert result.returncode == 0, result.stderr
    assert set(json.loads(result.stdout)) == set(UNCALLED)


def _imported_names(path):
    """Every dotted-name part and imported name in the module's imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_reference_imports_none_of_the_closed_forms():
    # The 2x2 reference (eigh entropies, Kraus map, productions) is what the
    # tests and `check` hold the closed forms to, so it must not use them.
    for module in ("qstate", "channel", "budget"):
        found = _imported_names(SRC / f"{module}.py") & {"bloch", "sweep", "tomography"}
        assert not found, f"{module}.py imports {sorted(found)}"


def _draws(path):
    """Whether the module references `numpy.random`: by importing it or a name
    from it, or by an attribute `random` of a name bound to numpy."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    numpy = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[:2] == ["numpy", "random"]:
                    return True
                if parts[0] == "numpy":
                    numpy.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[:2] == ["numpy", "random"] or (
                    node.module == "numpy" and any(a.name == "random" for a in node.names)):
                return True
    return any(isinstance(node, ast.Attribute) and node.attr == "random"
               and isinstance(node.value, ast.Name) and node.value.id in numpy
               for node in ast.walk(tree))


def test_only_tomography_draws():
    # Each experiment's shots come from one generator that `tomography.counts`
    # seeds; a draw anywhere else would not be in that stream.
    assert {path.stem for path in SRC.glob("*.py") if _draws(path)} == {"tomography"}
