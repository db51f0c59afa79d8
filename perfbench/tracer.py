"""In-memory span tracer that wraps a package's public functions.

Each wrapped call records a span: name, start, end, the index of the span
that was open when it began, and optional attributes computed from the
arguments and result. Callers in the package sometimes import a function by
name (``from .activations import act_forward``) and look it up in their own
module, so a function is patched at every module attribute that holds it,
not only where it is defined. ``restore`` puts every original back and
raises if any wrapper is left behind.

Spans stay in memory until ``dump`` writes them out; the tracer is
single-threaded, like the workloads it measures.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

_MARK = "__perfbench_traced__"

# (args, kwargs, result) -> attributes stored on the span
Annotator = Callable[[tuple, dict, object], dict]


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at top level
    attrs: dict | None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def package_modules(package: str) -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


class Tracer:
    """Wraps the public functions defined in ``package.<module>`` for each
    name in ``modules``; span names are ``<module>.<function>`` after the
    defining module, whatever alias the caller used."""

    def __init__(self, package: str, modules, annotators: dict[str, Annotator] | None = None):
        self.package = package
        self.modules = tuple(modules)
        self.annotators = dict(annotators or {})
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _targets(self) -> dict[int, tuple[Callable, str]]:
        targets = {}
        for short in self.modules:
            mod = sys.modules[f"{self.package}.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = (obj, f"{short}.{obj.__name__}")
        return targets

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack
        annotate = self.annotators.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                attrs = annotate(args, kwargs, result) if annotate and result is not None else None
                spans[idx] = Span(name, start, end, parent, attrs)

        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        targets = self._targets()
        wrappers: dict[int, Callable] = {}
        for mod in package_modules(self.package):
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is None or hit[0] is not obj:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(*hit)
                setattr(mod, attr, wrappers[id(obj)])
                self._patched.append((mod, attr, obj))

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        left = [f"{m.__name__}.{a}" for m in package_modules(self.package)
                for a, o in vars(m).items() if getattr(o, _MARK, False)]
        if left:
            raise RuntimeError(f"traced wrappers left after restore: {left}")

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def dump(self, path) -> None:
        """One JSON line per span: name, start_ns, end_ns, parent index."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start_ns, s.end_ns, s.parent]) + "\n")


def child_ms(spans: list[Span], keep: Callable[[Span], bool] = lambda s: True) -> list[float]:
    """Per span, the milliseconds covered by its direct children that ``keep``
    accepts. Children of one span never overlap in a single thread."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0 and keep(s):
            covered[s.parent] += s.ms
    return covered
