"""Per-layer timing by wrapping the layers' public functions.

A traced run replaces each function named in :data:`HOOKS` with a wrapper
that records one :class:`Span` per call: the layer's span name, start and
end on ``time.perf_counter`` (``CLOCK_MONOTONIC``, so spans recorded in
the service process line up with the load generator's clock), the
enclosing span on the same thread, and an optional work count taken from
the call.  Nothing in ``src/`` changes: the wrappers are installed for the
traced run only and removed afterwards; untraced runs never install
them.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable


def _leg_rows(args, kwargs, result) -> int:
    return sum(len(rows) for rows in result.leg_rows if rows is not None)


def _committed_events(args, kwargs, result) -> int:
    events = args[1] if len(args) > 1 else kwargs["events"]
    return len(events)


@dataclass(frozen=True)
class Hook:
    """One public function whose calls become spans of one layer."""

    module: str
    owner: str | None  # class name, or None for a module-level function
    attr: str
    span: str
    #: work units of one call, read from (args, kwargs, result)
    count: Callable[[tuple, dict, Any], int] | None = None


HOOKS: tuple[Hook, ...] = (
    Hook("repro.equivalence.session", "AnalysisSession",
         "declare_equivalent", "equivalence.declare"),
    Hook("repro.equivalence.session", "AnalysisSession",
         "candidate_pairs", "equivalence.rank"),
    Hook("repro.equivalence.session", "AnalysisSession",
         "specify", "assertions.specify"),
    Hook("repro.equivalence.session", "AnalysisSession",
         "suggest_assertions", "solver.suggest"),
    Hook("repro.equivalence.session", "AnalysisSession",
         "integrate", "integration.integrate"),
    Hook("repro.federation.planner", "QueryPlanner", "plan",
         "federation.plan"),
    Hook("repro.federation.executor", "FederationExecutor", "execute",
         "federation.legs", count=_leg_rows),
    # FederationEngine.query looks merge_legs up in its module globals
    Hook("repro.federation.engine", None, "merge_legs", "federation.merge"),
    Hook("repro.service.app", "ServiceApp", "dispatch", "service.dispatch"),
    Hook("repro.tool.session", "ToolSession", "save", "tool.save"),
    Hook("repro.tool.session", "ToolSession", "open", "tool.open"),
    Hook("repro.kernel.wal", "WriteAheadLog", "commit", "kernel.wal.commit",
         count=_committed_events),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: str | None
    units: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Total:
    """One layer's calls, inclusive time and work units over a window."""

    calls: int = 0
    seconds: float = 0.0
    units: int = 0
    #: time of calls not nested inside another traced call
    top_seconds: float = 0.0


class LayerTracer:
    """Installs the :data:`HOOKS` wrappers and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            target = module if hook.owner is None else getattr(
                module, hook.owner
            )
            raw = vars(target)[hook.attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, hook))
            else:
                wrapped = self._wrap(raw, hook)
            setattr(target, hook.attr, wrapped)
            self._installed.append((target, hook.attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            target, attr, raw = self._installed.pop()
            setattr(target, attr, raw)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, func, hook: Hook):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            stack.append(hook.span)
            units = 0
            start = clock()
            try:
                result = func(*args, **kwargs)
                units = hook.count(args, kwargs, result) if hook.count else 1
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(hook.span, start, end, parent, units))

        return wrapper

    def dump(self, path: Path) -> None:
        """Write every span recorded so far as one JSON document."""
        rows = [
            [s.name, s.start, s.end, s.parent, s.units] for s in self.spans
        ]
        Path(path).write_text(json.dumps(rows), encoding="utf-8")


def load_spans(path: Path) -> list[Span]:
    rows = json.loads(Path(path).read_text(encoding="utf-8"))
    return [Span(*row) for row in rows]


def totals(
    spans: Iterable[Span],
    windows: list[tuple[float, float]] | None = None,
) -> dict[str, Total]:
    """Per-layer totals over the spans that began inside one of ``windows``
    (every span when ``windows`` is None)."""
    result: dict[str, Total] = {}
    for span in spans:
        if windows is not None and not any(
            start <= span.start <= end for start, end in windows
        ):
            continue
        total = result.setdefault(span.name, Total())
        total.calls += 1
        total.seconds += span.seconds
        total.units += span.units
        if span.parent is None:
            total.top_seconds += span.seconds
    return result


def covered_seconds(table: dict[str, Total]) -> float:
    """Time inside outermost traced calls: each instant counted once."""
    return sum(total.top_seconds for total in table.values())


def layer_times(table: dict[str, Total]) -> dict[str, float]:
    """``<span>_ms`` per traced layer: its inclusive time in milliseconds."""
    return {f"{name}_ms": total.seconds * 1e3 for name, total in table.items()}
