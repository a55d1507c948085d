"""Census of the package's options: every public parameter with a default, and
every public dataclass field with a default, across `gadentropy.*`.

An option that no product caller (the CLI, `check`, the sweep) sets to more
than one value is one more path to keep and test, so each entry below names
the caller that sets it.  A new option fails this test until it is listed."""

import dataclasses
import importlib
import inspect
import pkgutil

import gadentropy

_CONFIG_KEY = "a config-file key sets it (sweep._CONFIG_KEYS), and a CLI flag or preset may"

OPTIONS = {
    "check.PropertyReport.results": "`run_property_suite` passes the suite's eight rows",
    "cli.main.argv": "the console script passes None (sys.argv); bench/worker.py passes a list",
    "sweep.SweepConfig.scenario": _CONFIG_KEY,
    "sweep.SweepConfig.p_values": _CONFIG_KEY,
    "sweep.SweepConfig.alpha_or_coherence": _CONFIG_KEY,
    "sweep.SweepConfig.units": "the config file's choice of alpha_deg or coherence sets it",
    "sweep.SweepConfig.r_grid": _CONFIG_KEY,
    "sweep.SweepConfig.shots": _CONFIG_KEY,
    "sweep.SweepConfig.n_bootstrap": _CONFIG_KEY,
    "sweep.SweepConfig.seed": _CONFIG_KEY,
    "sweep.SweepConfig.output_path": _CONFIG_KEY,
}


def _defaults(where, fn):
    return [f"{where}.{p.name}" for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def options():
    """'module.name[.method].parameter' of every public option with a default."""
    found = []
    for info in pkgutil.iter_modules(gadentropy.__path__):
        module = importlib.import_module(f"gadentropy.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            where = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                found += _defaults(where, obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found += [f"{where}.{f.name}" for f in dataclasses.fields(obj)
                              if f.default is not dataclasses.MISSING
                              or f.default_factory is not dataclasses.MISSING]
                for method, attr in vars(obj).items():
                    attr = getattr(attr, "__func__", attr)  # classmethod, staticmethod
                    if not method.startswith("_") and inspect.isfunction(attr):
                        found += _defaults(f"{where}.{method}", attr)
    return found


def test_every_option_has_a_product_caller():
    assert set(options()) == set(OPTIONS)
