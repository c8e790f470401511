"""Outside-in tracing of spdom's layers, installed by the benchmark.

The tracer replaces public functions of the ``spdom`` modules with wrappers
that record a span per call (name, start, end, parent, invocation) and work
counters read from the arguments or the return value.  It patches every
``spdom`` module that binds a function, since modules import each other's
functions by name.  A function that no longer exists is reported as absent
rather than failing the pass.  Nothing in ``spdom`` itself knows about it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

# Reads a counter increment from (args, kwargs, result).
Reader = Callable[[tuple, dict, Any], float]


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


@dataclass(frozen=True)
class Target:
    """A public function (or class, whose construction is traced) of one module."""

    module: str
    attr: str
    counters: dict = field(default_factory=dict)  # counter name -> Reader
    items: Optional[str] = None  # counter for items yielded, for generators

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("cli", "run_command"),
    Target("domfile", "parse_domain_file"),
    Target("classify", "classify"),
    Target("classify", "rebuild"),
    Target("classify", "partition_by_answers"),
    Target("prefcore", "pair_sets"),
    Target("rules", "Rule"),
    Target("rules", "range_of"),
    Target("rules", "dictators_of"),
    Target(
        "rules",
        "find_manipulation",
        {"profiles": lambda a, k, r: _arg(a, k, 0, "rule").domain.profile_count},
    ),
    Target("rules", "find_manipulation_within"),
    Target("rules", "audit_sp_lemmas"),
    Target("counting", "enumerate_sp_rules", items="rules"),
    Target("counting", "nonconditional_domains"),
    Target("counting", "verify_impossibility"),
    Target("counting", "count_second_step"),
    Target("counting", "count_dictatorial"),
    Target("counting", "dictatorial_rules"),
    Target("counting", "pair_vote_rules"),
    Target("counting", "second_step_catalog", {"entries": lambda a, k, r: len(r)}),
    Target("twostep", "response_profiles"),
    Target("twostep", "blocks_for"),
    Target("twostep", "assemble"),
    Target(
        "twostep",
        "search_sp_combinations",
        {
            "tried": lambda a, k, r: r.candidates_tried,
            "found": lambda a, k, r: len(r.assignments),
        },
    ),
)

# Exceptions a counter reader may raise when a later version changes an
# argument or return type; the counter is then reported absent.
_READ_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.invocations = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.invocation = -1
        self.counters: Counter = Counter()
        self.unreadable: set[str] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.invocations.append(self.invocation)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def count(self, target: Target, args: tuple, kwargs: dict, result: Any) -> None:
        for key, read in target.counters.items():
            metric = f"{target.name}.{key}"
            try:
                self.counters[metric] += read(args, kwargs, result)
            except _READ_ERRORS:
                self.unreadable.add(metric)

    def self_times(self) -> dict[str, float]:
        """Per span name, total span time minus the time its child spans cover."""
        child = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals = [0.0] * len(self.names)
        for i, name_id in enumerate(self.name_ids):
            totals[name_id] += self.ends[i] - self.starts[i] - child[i]
        return {f"{name}.self_s": totals[i] for i, name in enumerate(self.names)}

    def write_spans(self, path: Path) -> None:
        """Spans as gzip CSV: name, invocation, start and end (s, from the
        first span), parent row (-1 for a root)."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,invocation,start,end,parent\n")
            for i, name_id in enumerate(self.name_ids):
                out.write(
                    f"{self.names[name_id]},{self.invocations[i]},"
                    f"{self.starts[i] - origin:.9f},{self.ends[i] - origin:.9f},{self.parents[i]}\n"
                )


def _wrap_function(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    name_id = tracer.name_id(target.name)
    calls = f"{target.name}.calls"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.counters[calls] += 1
        span = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        tracer.count(target, args, kwargs, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    """Each ``next()`` on the generator is its own span."""
    name_id = tracer.name_id(target.name)
    calls = f"{target.name}.calls"
    items = f"{target.name}.{target.items}" if target.items else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.counters[calls] += 1
        inner = fn(*args, **kwargs)
        try:
            while True:
                span = tracer.open(name_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                if items:
                    tracer.counters[items] += 1
                yield item
        finally:
            inner.close()

    return traced


def _wrap_class(tracer: Tracer, target: Target, cls: type) -> Optional[Callable]:
    """Construction of ``cls`` is a span; counts objects built and table cells."""
    init = cls.__dict__.get("__init__")
    if init is None:
        return None
    name_id = tracer.name_id(target.name)
    built = f"{target.name}.built"
    cells = f"{target.name}.cells"

    @functools.wraps(init)
    def traced(self, *args, **kwargs):
        span = tracer.open(name_id)
        try:
            init(self, *args, **kwargs)
        finally:
            tracer.close(span)
        tracer.counters[built] += 1
        try:
            tracer.counters[cells] += len(self.table)
        except _READ_ERRORS:
            tracer.unreadable.add(cells)

    return traced


def spdom_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "spdom" or name.startswith("spdom.")]


def clear_caches() -> None:
    """Empty every ``functools`` cache in spdom, so that each pass starts cold
    as a CLI process does."""
    for module in spdom_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Installation:
    """The patches of one traced pass; ``remove`` puts the originals back."""

    def __init__(self, tracer: Tracer) -> None:
        self.patches: list[tuple[Any, str, Any]] = []
        self.absent: list[str] = []
        for target in TARGETS:
            try:
                module = importlib.import_module(f"spdom.{target.module}")
            except ImportError:
                self.absent.append(target.name)
                continue
            original = getattr(module, target.attr, None)
            if inspect.isclass(original):
                wrapper = _wrap_class(tracer, target, original)
                if wrapper is None:
                    self.absent.append(target.name)
                else:
                    self._patch(original, "__init__", wrapper)
            elif callable(original):
                wrap = _wrap_generator if inspect.isgeneratorfunction(original) else _wrap_function
                wrapper = wrap(tracer, target, original)
                for bound in spdom_modules():
                    for attr, value in list(vars(bound).items()):
                        if value is original:
                            self._patch(bound, attr, wrapper)
            else:
                self.absent.append(target.name)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
