"""Hierarchical query spans.

A :class:`Span` is one timed phase of a query's life — parse, planning,
cuboid search, lowering, one physical unit, one cluster stage — arranged in
a tree rooted at the query span.  Spans carry two clocks:

* **wall seconds** (``wall_start``/``wall_end``) — real time measured by the
  tracer's clock, what an operator debugging slow planning cares about;
* **modeled seconds** (``modeled_start``/``modeled_end``) — the simulator's
  deterministic clock, filled in for phases that ran cluster stages.

Free-form ``attrs`` hold per-phase counters (cuboids enumerated/pruned,
plan-cache hit, stage task counts).  Everything here is plain data, and
``to_dict()`` round-trips through JSON.

:class:`SpanTracer` builds the tree with nested context managers.  The
clock is injectable so tests pin wall timestamps deterministically.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed phase with wall + modeled clocks and free-form attributes."""

    name: str
    category: str = "span"
    wall_start: float = 0.0
    wall_end: Optional[float] = None
    modeled_start: Optional[float] = None
    modeled_end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def wall_seconds(self) -> float:
        """Wall-clock duration (0.0 while the span is still open)."""
        if self.wall_end is None:
            return 0.0
        return max(0.0, self.wall_end - self.wall_start)

    @property
    def modeled_seconds(self) -> Optional[float]:
        """Modeled duration, when both modeled endpoints are known."""
        if self.modeled_start is None or self.modeled_end is None:
            return None
        return max(0.0, self.modeled_end - self.modeled_start)

    def child(self, name: str, category: str = "span", **attrs: Any) -> "Span":
        """Append and return a new child span (caller closes it)."""
        span = Span(name=name, category=category, attrs=dict(attrs))
        self.children.append(span)
        return span

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, children in order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """The first span named *name* in depth-first order (or None)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-serializable when attrs are)."""
        return {
            "name": self.name,
            "category": self.category,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
            "wall_seconds": self.wall_seconds,
            "modeled_start": self.modeled_start,
            "modeled_end": self.modeled_end,
            "modeled_seconds": self.modeled_seconds,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: int = 0) -> str:
        """An indented one-line-per-span text tree (wall + modeled)."""
        pad = "  " * indent
        line = f"{pad}{self.name} [{self.category}] wall={self.wall_seconds:.6f}s"
        modeled = self.modeled_seconds
        if modeled is not None:
            line += f" modeled={modeled:.6g}s"
        if self.attrs:
            parts = ", ".join(
                f"{key}={self.attrs[key]}" for key in sorted(self.attrs)
            )
            line += f" ({parts})"
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, category={self.category!r}, "
            f"wall={self.wall_seconds:.6f}s, children={len(self.children)})"
        )


class SpanTracer:
    """Builds a span tree with nested ``with tracer.span(...)`` blocks.

    The tracer is single-threaded by design: the engine's execute lock
    serializes query phases, and per-unit spans are attached after the
    units finished, from measured wall durations — so no span is ever
    mutated from two threads.

    *clock* defaults to :func:`time.perf_counter`; inject a fake for
    deterministic tests.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or time.perf_counter
        self.root: Optional[Span] = None
        self._stack: List[Span] = []

    def now(self) -> float:
        return self._clock()

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span (None outside any ``span()`` block)."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(
        self, name: str, category: str = "span", **attrs: Any
    ) -> Iterator[Span]:
        """Open a span as a child of the current one (or as the root)."""
        span = Span(
            name=name,
            category=category,
            wall_start=self.now(),
            attrs=dict(attrs),
        )
        if self._stack:
            self._stack[-1].children.append(span)
        elif self.root is None:
            self.root = span
        else:
            # a second top-level span joins the existing root as a child so
            # one tracer always yields one tree
            self.root.children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.wall_end = self.now()
