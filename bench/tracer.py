"""Call counts and self time for every function of the program.

`Tracer.install` replaces each function of a `quartic15` module by a timing
wrapper in every module namespace that binds it.  Wrappers are keyed by the
identity of the original, so a name imported with `from .exact import
solve_linear` gets the same wrapper as `exact.solve_linear`.  Methods are
wrapped on the class that defines them.  Spans are folded into per-function
totals in memory (a full certificate makes millions of calls) and read once
the run has ended.  Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import time
import types

PACKAGE = "quartic15"


class Stat:
    __slots__ = ("calls", "raised", "total_s", "self_s")

    def __init__(self):
        self.calls = self.raised = 0
        self.total_s = self.self_s = 0.0


def _is_program_function(value) -> bool:
    fn = getattr(value, "__wrapped__", value)  # lru_cache wrappers
    return isinstance(fn, types.FunctionType) and fn.__module__.startswith(PACKAGE + ".")


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}  # "<module>.<qualname>" -> totals
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._classes: set[int] = set()
        self._stack = [0.0]  # child time of each open span; [0] is the root
        self.missing: set[str] = set()  # keys asked for that name no function

    def install(self, modules) -> None:
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if _is_program_function(value):
                    setattr(mod, name, self._wrap(value))
                elif isinstance(value, type) and value.__module__.startswith(PACKAGE + "."):
                    self._wrap_class(value)

    def _wrap_class(self, cls: type) -> None:
        if id(cls) in self._classes:
            return
        self._classes.add(id(cls))
        layer = cls.__module__
        for name, attr in list(vars(cls).items()):
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, self._wrap(attr, layer))
            elif isinstance(attr, (staticmethod, classmethod)):
                setattr(cls, name, type(attr)(self._wrap(attr.__func__, layer)))
            elif isinstance(attr, property) and attr.fget is not None:
                setattr(cls, name, attr.getter(self._wrap(attr.fget, layer)))

    def _wrap(self, fn, layer: str | None = None):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        inner = getattr(fn, "__wrapped__", fn)
        layer = (layer or inner.__module__).removeprefix(PACKAGE + ".")
        stat = self.stats.setdefault(f"{layer}.{inner.__qualname__}", Stat())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - stack.pop()
                stack[-1] += elapsed

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        self._wrappers[id(fn)] = traced  # the closure keeps fn, so its id stays unique
        return traced

    def stat(self, key: str) -> Stat:
        """Totals of one function; all zero, and noted in `missing`, if the
        program has no such function (a refactor removed or renamed it)."""
        if key not in self.stats:
            self.missing.add(key)
            return Stat()
        return self.stats[key]

    def layer_totals(self, layer: str) -> tuple[int, float]:
        """(calls, self seconds) summed over the functions of one module."""
        rows = [s for k, s in self.stats.items() if k.startswith(layer + ".")]
        return sum(s.calls for s in rows), sum(s.self_s for s in rows)
