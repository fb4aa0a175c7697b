"""Per-function spans around prdom's public functions, installed from outside.

``Tracer.install`` replaces every public function of the prdom modules, in
every prdom namespace that holds it (``prdom.stability.prd_number`` and
``prdom.solver.prd_number`` get separate wrappers), plus ``__init__`` and
the public methods of prdom's own classes. Each call opens a span; a span's
self time is its duration minus the durations of the spans it encloses.
Spans are aggregated in memory per function and read once at the end. The
source under ``src/`` is not touched.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

MODULES = ("cli", "graphs", "graph6", "canonical", "solver", "stability", "family", "enumeration", "sweeps")

# Results of the child are counted as distinct per enclosing span of the parent:
# the members the family closure keeps are the distinct canonical forms it computes.
DISTINCT_RESULTS = {("canonical.canonical_form", "family.enumerate_family")}


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    vertices: int = 0  # sum of the input orders
    items: int = 0  # values yielded, for generator functions
    distinct: int = 0  # see DISTINCT_RESULTS


@dataclass(slots=True)
class _Span:
    name: str
    start: float
    child_s: float = 0.0
    results: set | None = None


def _order(args: tuple, result: object) -> int:
    """The input's vertex count: the first argument with an ``n``, an int order, else the result's ``n``."""
    for arg in args:
        n = getattr(arg, "n", None)
        if isinstance(n, int):
            return n
        if isinstance(arg, int) and not isinstance(arg, bool):
            return arg
    n = getattr(result, "n", None)
    return n if isinstance(n, int) else 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Aggregate] = {}
        self.via: Counter[tuple[str, str]] = Counter()  # (function, namespace it was looked up in)
        self.under: Counter[tuple[str, str]] = Counter()  # (function, innermost enclosing span)
        self._stack: list[_Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> None:
        self._stack.append(_Span(name, perf_counter()))

    def _close(self, name: str, args: tuple, result: object, count: bool) -> None:
        span = self._stack.pop()
        duration = perf_counter() - span.start
        agg = self.stats[name]
        agg.total_s += duration
        agg.self_s += duration - span.child_s
        if span.results:
            agg.distinct += len(span.results)
        if count:
            agg.calls += 1
            agg.vertices += _order(args, result)
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            if count:
                self.under[name, parent.name] += 1
            if (name, parent.name) in DISTINCT_RESULTS:
                if parent.results is None:
                    parent.results = set()
                parent.results.add(result)

    def _wrap(self, name: str, via: str, fn):
        tracer = self
        self.stats.setdefault(name, Aggregate())

        if inspect.isgeneratorfunction(fn):
            # A span per next(): the work happens while the consumer pulls.
            def traced_generator(*args, **kwargs):
                tracer.via[name, via] += 1
                agg = tracer.stats[name]
                agg.calls += 1
                agg.vertices += _order(args, None)
                it = fn(*args, **kwargs)
                while True:
                    tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(name, args, None, False)
                    agg.items += 1
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            tracer.via[name, via] += 1
            tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(name, args, result, True)

        return traced

    def _patch(self, owner: object, attr: str, name: str, via: str, fn) -> None:
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(name, via, fn))

    def install(self) -> None:
        """Wrap prdom's public functions and class methods in every prdom namespace."""
        package = importlib.import_module("prdom")
        modules = {short: importlib.import_module(f"prdom.{short}") for short in MODULES}
        names = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    names[obj] = f"{short}.{attr}"
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if (
                            inspect.isfunction(fn)
                            and (method == "__init__" or not method.startswith("_"))
                            and fn.__code__.co_filename == mod.__file__
                        ):
                            self._patch(obj, method, f"{short}.{attr}.{method.strip('_')}", short, fn)
        namespaces = {"prdom": package, **modules}
        for via, ns in namespaces.items():
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in names:
                    self._patch(ns, attr, names[obj], via, obj)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)
