"""Per-function spans around the public functions of the `vlcjcp` modules.

The tracer wraps each named function and rebinds every `vlcjcp` module
attribute bound to it: `harness` and `positioning` import functions by name,
so patching only the defining module would miss their calls.  The originals
are restored when the `installed()` block exits, also on error.  A function
that no longer exists is reported as absent instead of failing the run.

Spans are aggregated in memory per function: calls, total time, self time
(total minus the time covered by wrapped child calls), exceptions raised and
an optional work count taken from the call.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator

PACKAGE = "vlcjcp"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    count: int = 0        # work done, as counted by the function's counter


class Tracer:
    """Aggregated spans for `targets`: {module: (function, ...)}.

    `counters` maps "module.function" to a callable (args, kwargs, result)
    giving the work done by one successful call.  `package` and `clock` let
    the tests trace a synthetic package on a fake clock.
    """

    def __init__(self, targets: dict[str, tuple[str, ...]],
                 counters: dict[str, Callable] | None = None,
                 package: str = PACKAGE, clock: Callable[[], float] = time.perf_counter):
        self.targets = targets
        self.counters = counters or {}
        self.package = package
        self.clock = clock
        self.stats = {f"{m}.{f}": SpanStats() for m, fs in targets.items() for f in fs}
        self.absent: list[str] = []
        self._stack: list[float] = []   # child time of each open span

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]
        counter = self.counters.get(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                stat.count += counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the targets for the duration of the block."""
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        self.absent = []
        for module_name, functions in self.targets.items():
            module = importlib.import_module(f"{self.package}.{module_name}")
            for function in functions:
                original = getattr(module, function, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{function}")
                    continue
                wrappers[id(original)] = (original,
                                          self._wrap(f"{module_name}.{function}", original))
        rebound: list[tuple[object, str, Callable]] = []
        try:
            for module_name, module in list(sys.modules.items()):
                if module is None or not (module_name == self.package
                                          or module_name.startswith(self.package + ".")):
                    continue
                for attr, value in list(vars(module).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])
                        rebound.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(rebound):
                setattr(module, attr, value)
            self._stack.clear()
