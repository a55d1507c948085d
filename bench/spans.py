"""Call tracing from outside the package.

`Tracer.install()` wraps every public function of each gadentropy module at
every module attribute that binds it, so calls through names imported
elsewhere (`sweep` imports `total_production` and `budget as
entropy_budget` by name; `budget` imports `relative_entropy`, `dephase` and
`apply`) are traced too.  `Tracer.uninstall()` restores every attribute.

Spans are aggregated in memory rather than kept one by one: per function
the call count, busy time `s`, and self time `self_s` (busy time minus the
time of directly nested traced calls), plus a caller -> callee edge table.
A few counters record work and outcomes at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("qstate", "channel", "budget", "prep", "tomography", "sweep", "cli")


def _bloch_lengths(value) -> np.ndarray:
    """Bloch lengths of a 2x2 matrix, a stack of them, or (..., 3) vectors."""
    a = np.asarray(value)
    if a.shape[-2:] == (2, 2):
        x = 2.0 * a[..., 0, 1].real
        y = -2.0 * a[..., 0, 1].imag
        z = (a[..., 0, 0] - a[..., 1, 1]).real
        return np.sqrt(x * x + y * y + z * z).ravel()
    return np.linalg.norm(a.real, axis=-1).ravel()


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Aggregated spans and counters for one traced workload iteration."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])
        self.counters = defaultdict(int)
        self._stack: list[list] = []  # [name, child time]
        self._patches: list[tuple[object, str, object]] = []

    # Hooks: counters derived from arguments, results and raised exceptions.
    def _hook(self, name, args, kwargs, result, exc):
        c = self.counters
        if name == "tomography.project_to_physical":
            lengths = _bloch_lengths(_arg(args, kwargs, 0, "m"))
            c["tomography.project_inputs"] += lengths.size
            c["tomography.projected"] += int(np.sum(lengths > 1.0))
        elif name == "tomography.reconstruct_with_errors" and exc is None:
            c["tomography.bootstrap_states"] += len(result.bootstrap_states)
        elif name == "budget.budget":
            if exc is not None and type(exc).__name__ == "IndeterminateEntropyError":
                c["budget.indeterminate"] += 1
            elif exc is None and not all(
                math.isfinite(v) for v in (result.total, result.population, result.coherence)
            ):
                c["budget.nonfinite"] += 1
        elif name == "channel.evolve_master_equation":
            # Steps the call asks for, from its documented default step
            # 1e-3 / [gamma0 (2 nbar + 1)] rounded up to land on t.
            bath = _arg(args, kwargs, 0, "bath")
            t = _arg(args, kwargs, 2, "t")
            dt = _arg(args, kwargs, 3, "dt")
            if dt is None:
                dt = 1e-3 / (bath.gamma0 * (2.0 * bath.mean_occupation + 1.0))
            if t > 0:
                c["channel.rk4_steps"] += max(1, math.ceil(t / dt - 1e-9))
        elif name == "sweep.emit_csv" and exc is None:
            c["sweep.emit_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            exc = result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_time[name] += dt - frame[1]
                edge = self.edges[(parent, name)]
                edge[0] += 1
                edge[1] += dt
                self._hook(name, args, kwargs, result, exc)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            # sys.modules, because the package attribute `gadentropy.budget`
            # is the budget *function*, which shadows the module.
            mod = sys.modules[f"gadentropy.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gadentropy" or n.startswith("gadentropy."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patches.append((mod, attr, obj))

        qubit_state = sys.modules["gadentropy.qstate"].QubitState
        original_post_init = qubit_state.__post_init__
        counters = self.counters

        def counted_post_init(state):
            counters["qstate.QubitState.constructed"] += 1
            original_post_init(state)

        qubit_state.__post_init__ = counted_post_init
        self._patches.append((qubit_state, "__post_init__", original_post_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def report(self) -> dict:
        """Plain-data summary: per-function calls/s/self_s, counters, edges."""
        return {
            "functions": {
                name: {"calls": self.calls[name], "s": self.busy[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)
            },
            "counters": dict(sorted(self.counters.items())),
            "edges": [
                {"caller": caller, "callee": callee, "calls": n, "s": s}
                for (caller, callee), (n, s) in sorted(
                    self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))
            ],
        }
