"""In-memory spans around the public functions of lsm2d.

A traced pass replaces every public function of the package, in every
module namespace that binds it, with a wrapper that records a span (name,
start, end, parent). Functions call each other through module globals
(``solve`` calls ``system_inertia`` through ``lattice``, ``cli`` calls
``calibrate`` through its own import), so patching every binding is what
makes nested calls visible. A function that does not exist is simply not
wrapped, and its metrics read 0.

Spans are named ``<module>.<function>`` with the ``lsm2d.`` prefix
dropped, for example ``lattice.solve``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "lsm2d"


def _record_dense_bytes(counters, args, kwargs, result) -> None:
    reduced = args[0] if args else kwargs.get("reduced")
    n = reduced.matrix.shape[0]
    counters["lattice.system_inertia.dense_bytes"] += 8 * n * n


def _record_reduced_size(counters, args, kwargs, result) -> None:
    counters["lattice.free_dofs"] += result.matrix.shape[0]
    counters["lattice.reduced_nnz"] += result.matrix.nnz


def _record_csv_bytes(counters, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    counters["cli.write_csv.bytes"] += os.path.getsize(path)


# counts read at a layer boundary from the arguments or the return value
HOOKS = {
    "lattice.system_inertia": _record_dense_bytes,
    "lattice.apply_constraints": _record_reduced_size,
    "cli.write_csv": _record_csv_bytes,
}


class Tracer:
    """Wraps lsm2d's public functions while installed; records spans while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index, raised]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _modules(self):
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _public_functions(self) -> dict[int, tuple[str, object]]:
        found = {}
        for module in self._modules():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                short = obj.__module__[len(PACKAGE) + 1 :]
                found[id(obj)] = (f"{short}.{obj.__name__}", obj)
        return found

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, False])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index][4] = True
                raise
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {
            key: self._wrap(name, fn) for key, (name, fn) in self._public_functions().items()
        }
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def summary(self) -> dict[str, float]:
        """Per-function calls, failed calls, busy and self seconds, plus the counters."""
        out: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, raised) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.failed"] += int(raised)
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[index]
        out.update(self.counters)
        return out
