"""Outside-in tracing: spans recorded by wrapping calls into public functions.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call: name, start, end, parent span and, where the
call's arguments carry one, the operation's ``OpId``.  Parents come from
a per-task context-variable stack, so concurrent asyncio tasks nest their
own spans.  Spans stay in memory; :meth:`Tracer.dump` writes them out
once, at shutdown.

Self time is a span's duration minus the part of it its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: name, start, end, parent index (-1 for a root), opid text ("" if none)
Span = Tuple[str, float, float, int, str]

_STACK: contextvars.ContextVar = contextvars.ContextVar("perfbench_spans", default=())


def _opid_in(args: Sequence[Any]) -> str:
    """The first ``OpId`` an argument carries, directly or via ``.operation``."""
    for arg in args:
        opid = getattr(arg, "opid", None)
        if opid is None:
            opid = getattr(getattr(arg, "operation", None), "opid", None)
        if opid is not None:
            return f"{opid.replica}:{opid.seq}"
    return ""


class Tracer:
    """Collects spans, call counts and per-name maxima in one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, int] = {}
        self.maxima: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def high_water(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def wrap(self, name: str, fn: Callable, opid: bool = False) -> Callable:
        """A traced stand-in for ``fn``; ``opid`` tags the span with the
        ``OpId`` found in the arguments."""
        spans, clock = self.spans, self.clock

        def begin(args: Tuple) -> Tuple[int, int, Any, str]:
            stack = _STACK.get()
            index = len(spans)
            spans.append(None)  # reserve: indexes follow start order
            token = _STACK.set(stack + (index,))
            return index, stack[-1] if stack else -1, token, (
                _opid_in(args) if opid else ""
            )

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index, parent, token, tag = begin(args)
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    spans[index] = (name, start, clock(), parent, tag)
                    _STACK.reset(token)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent, token, tag = begin(args)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, tag)
                _STACK.reset(token)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Trace ``owner.attr`` (a method, or a module-level function)."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{name}: static/class methods are not traced")
        replace(owner, attr, self.wrap(name, original, **options))

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per-name call count, total and self seconds, plus counters.

        A call still running at summary time has no span yet and is left
        out.
        """
        spans = self.spans
        by_name: Dict[str, Dict[str, float]] = {}
        for span, own in zip(spans, self_times(spans)):
            if span is None:
                continue
            entry = by_name.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span[2] - span[1]
            entry["self_s"] += own
        return {"spans": by_name, "counts": dict(self.counts), "maxima": dict(self.maxima)}

    def dump(self, path: str) -> None:
        """Write the summary and every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**self.summary(), "span_list": self.spans}, handle)


def merge_summaries(summaries: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """One :meth:`Tracer.summary` for several processes (sums; maxima max)."""
    merged: Dict[str, Any] = {"spans": {}, "counts": {}, "maxima": {}}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            into = merged["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for name, value in summary["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        for name, value in summary["maxima"].items():
            merged["maxima"][name] = max(value, merged["maxima"].get(name, value))
    return merged


def hook(owner: Any, attr: str, after: Callable[[Tuple, Any], None]) -> None:
    """Make ``owner.attr`` (a synchronous method or function) call
    ``after(args, result)`` each time it returns.

    The one way the harness observes calls without timing them: the load
    generator notes generates and acknowledgements, and traced runs
    record counts and high-water marks at a span's boundary.
    """
    fn = inspect.getattr_static(owner, attr)

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result)
        return result

    replace(owner, attr, hooked)


def replace(owner: Any, attr: str, new: Callable) -> None:
    """Set ``owner.attr`` to ``new``.

    For a module-level function, every loaded ``repro`` module that
    imported the same function object by name is patched too, so the
    replacement sees the calls whichever module makes them.
    """
    original = inspect.getattr_static(owner, attr)
    setattr(owner, attr, new)
    if inspect.ismodule(owner):
        for module_name, module in list(sys.modules.items()):
            if (
                module_name.startswith("repro")
                and module is not owner
                and getattr(module, attr, None) is original
            ):
                setattr(module, attr, new)


def self_times(spans: Sequence[Optional[Span]]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    ``spans[i][3]`` indexes the parent in ``spans``; ``None`` marks a call
    that has not returned (self time 0).  Children are clipped to their
    parent, and overlapping children count once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span is not None and span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result: List[float] = []
    for index, span in enumerate(spans):
        if span is None:
            result.append(0.0)
            continue
        _, start, end, _, _ = span
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append(end - start - covered)
    return result
