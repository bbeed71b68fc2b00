"""In-memory span recorder that wraps the package's functions from outside.

A traced function is named ``<module>.<function>`` after the module that
defines it.  Modules import functions by name, so every binding of the same
function object in any ``lowrankpde`` module is replaced by one wrapper, and
all of them are restored when the recorder is uninstalled.  A name that does
not exist in the package is skipped and reports zero calls.

Each call becomes a span ``(name, start, end, parent)``; the parent is the
innermost traced call still open.  Self time is a span's duration minus the
part of it covered by its children.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "lowrankpde"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class Recorder:
    """Spans and counters of the functions ``names`` (``module.function``).

    ``wrappers`` maps a name to a factory ``(recorder, fn) -> fn`` for
    functions that need more than a span (the cg iteration counter).
    """

    names: tuple = ()
    wrappers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _open: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    # -- installing into the package ----------------------------------------

    def install(self) -> None:
        """Wrap every binding of each traced function in the package."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name in self.names:
            module_name, _, attr = name.rpartition(".")
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                continue
            factory = self.wrappers.get(name)
            traced = self.wrap(name, factory(self, original) if factory else original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def summarize(spans) -> tuple:
    """Per-name call counts and self times of a list of spans."""
    children = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    calls, self_s = {}, {}
    for index, span in enumerate(spans):
        inner = [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(index, ())]
        own = (span.end - span.start) - _covered([iv for iv in inner if iv[1] > iv[0]])
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
    return calls, self_s


def counting_cg(recorder: Recorder, cg):
    """Wrap scipy's ``cg`` so each iteration is counted through its callback.

    The callback only reads the iterate, so the solution is unchanged; a
    callback the caller passed is still called.
    """
    @functools.wraps(cg)
    def counted(*args, callback=None, **kwargs):
        def tick(xk):
            recorder.count("stepping.cg.iterations")
            if callback is not None:
                callback(xk)
        return cg(*args, callback=tick, **kwargs)
    return counted
