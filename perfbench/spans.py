"""Span recording for the traced benchmark run.

The benchmark measures each ``repro`` layer from outside: :meth:`Tracer.install`
replaces public functions and methods of the layer with wrappers that record
one span per call (name, start, end, parent span, operation id) and restores
the originals afterwards.  Nothing under ``src/`` knows it is being traced.

Where a caller imported a function by name (``repro.core.heuristic`` imports
``price_batch`` from ``repro.core.screening``), the wrapper is installed on
that caller's binding as well, so every call path is recorded.

Spans are kept in memory and written out once, as Chrome trace-event JSON
(open with ``chrome://tracing`` or Perfetto).  Parent and operation ids live
in a :class:`contextvars.ContextVar`, so spans nest correctly per thread and
per asyncio task.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class Target(NamedTuple):
    """One traced call: where it lives and the span it records.

    ``hook`` gets ``(tracer, args, kwargs, result)`` after each successful
    call, so counts are taken where the work happens.  ``op`` maps the call's
    arguments to an operation id, for calls that start an operation.
    """

    module: str
    path: str
    name: str
    hook: Optional[Callable[..., None]] = None
    op: Optional[Callable[[tuple], str]] = None


def _count_iterations(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("highs.simplex_iterations", int(getattr(result, "iterations", 0) or 0))


# The screen's priced share counts candidates of screened problems only:
# single-site analyses also price unscreened problems through price_batch.
# Pricing runs on worker threads, so the problem object, not the span
# stack, ties a price_batch call to its screen.
def _count_screened(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.screened[id(args[0])] = args[0]
    tracer.count("screening.screened", len(result.lower_bounds))


def _count_priced(tracer: "Tracer", args, kwargs, result) -> None:
    if tracer.screened.get(id(args[0])) is args[0]:
        tracer.count("screening.priced", len(result))


def _request_op(args: tuple) -> str:
    payload = args[1] if len(args) > 1 else None
    request_id = payload.get("id") if isinstance(payload, dict) else None
    return f"request {request_id}"


#: The public calls timed in each layer (the ``src/repro`` packages).
TARGETS: Tuple[Target, ...] = (
    Target("repro.weather.synthesis", "TMYGenerator.generate", "weather.generate"),
    Target("repro.geo.infrastructure", "InfrastructureMap.nearest_plant", "geo.nearest"),
    Target("repro.geo.infrastructure", "InfrastructureMap.nearest_backbone", "geo.nearest"),
    Target("repro.energy.profiles", "ProfileBuilder.build", "energy.profile_build"),
    Target("repro.scenarios.runner", "ExperimentRunner.run", "runner.run"),
    Target("repro.core.provisioning", "ProvisioningCompiler.compile", "provisioning.compile"),
    Target("repro.core.provisioning", "ProvisioningCompiler.compile_row_form", "provisioning.compile"),
    Target("repro.core.provisioning", "ProvisioningCompiler.compile_batch", "provisioning.compile"),
    Target("repro.core.provisioning", "IncrementalSitingEvaluator.evaluate", "provisioning.evaluate"),
    Target("repro.core.screening", "screen_lower_bounds", "screening.bound", _count_screened),
    Target("repro.core.heuristic", "screen_lower_bounds", "screening.bound", _count_screened),
    Target("repro.core.screening", "price_batch", "screening.price_batch", _count_priced),
    Target("repro.core.heuristic", "price_batch", "screening.price_batch", _count_priced),
    Target("repro.core.heuristic", "HeuristicSolver.filter_locations", "heuristic.filter"),
    Target("repro.core.heuristic", "HeuristicSolver.solve", "heuristic.solve"),
    Target("repro.core.adaptive_grid", "AdaptiveGridRefiner.refine", "heuristic.refine"),
    Target("repro.lpsolver.highs_backend", "solve_row_form", "highs.batch_solve", _count_iterations),
    Target("repro.lpsolver.highs_backend", "MutableHighsModel.solve", "highs.model_solve", _count_iterations),
    Target("repro.operator.traffic", "TrafficModel.synthesize", "traffic.synthesize"),
    Target("repro.operator.forecast", "RollingForecast.window", "forecast.window"),
    Target("repro.operator.dispatch", "RollingDispatcher.advance", "dispatch.advance"),
    Target("repro.operator.replay", "ReplayHarness.run", "replay.run"),
    Target("repro.serve.server", "PlanServer.handle", "serve.handle", op=_request_op),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]
    tid: int


@dataclass(frozen=True)
class _Frame:
    span: Optional[int]
    op: Optional[str]


_CURRENT: contextvars.ContextVar[_Frame] = contextvars.ContextVar(
    "perfbench_span", default=_Frame(span=None, op=None)
)


@dataclass
class Tracer:
    """Collects spans and counters in memory; thread- and task-safe."""

    spans: List[Span] = field(default_factory=list)
    #: ``(time, name, amount)`` per count, so counts can be windowed like spans.
    counts: List[Tuple[float, str, int]] = field(default_factory=list)
    origin: float = field(default_factory=time.perf_counter)
    #: Problems passed to the screen, by id (weakly: plans are not kept alive).
    screened: Any = field(default_factory=weakref.WeakValueDictionary)
    _ids: Any = field(default_factory=lambda: itertools.count(1))
    _lock: Any = field(default_factory=threading.Lock)
    _restore: List[Tuple[Any, str, Any]] = field(default_factory=list)

    # -- recording -------------------------------------------------------------
    def _open(self, name: str, op: Optional[str]) -> Tuple[Span, contextvars.Token]:
        frame = _CURRENT.get()
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            id=span_id,
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=frame.span,
            op=op if op is not None else frame.op,
            tid=threading.get_ident(),
        )
        return span, _CURRENT.set(_Frame(span=span_id, op=span.op))

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[Span]:
        """Record one span around the ``with`` body; ``op`` starts a new operation."""
        span, token = self._open(name, op)
        try:
            yield span
        finally:
            self._close(span, token)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts.append((time.perf_counter(), name, amount))

    def wrap(
        self,
        func: Callable,
        name: str,
        hook: Optional[Callable[..., None]] = None,
        op: Optional[Callable[[tuple], str]] = None,
    ) -> Callable:
        """``func`` with a span around every call (coroutines included)."""
        tracer = self

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                span, token = tracer._open(name, op(args) if op is not None else None)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    tracer._close(span, token)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result

            return traced_async

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span, token = tracer._open(name, op(args) if op is not None else None)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span, token)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------------
    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        wrapped: Dict[int, Callable] = {}
        for target in targets:
            owner: Any = importlib.import_module(target.module)
            *parents, attribute = target.path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = inspect.getattr_static(owner, attribute)
            # One wrapper per function: a by-name import shares it with the
            # defining module instead of nesting a second span inside it.
            replacement = wrapped.get(id(original))
            if replacement is None:
                replacement = wrapped[id(original)] = self.wrap(
                    original, target.name, target.hook, target.op
                )
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- export ----------------------------------------------------------------
    def write_chrome_trace(self, path: str) -> None:
        """All spans as Chrome trace-event JSON (complete ``X`` events, in µs)."""
        pid = os.getpid()
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - self.origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": pid,
                "tid": span.tid,
                "args": {"span": span.id, "parent": span.parent, "op": span.op},
            }
            for span in self.spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# -- analysis -------------------------------------------------------------------


def covered(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


@dataclass
class SpanTotals:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


def totals_by_name(spans: Sequence[Span]) -> Dict[str, SpanTotals]:
    """Calls, inclusive and self seconds per span name.

    Calls and inclusive time count only the outermost span of a name, so a
    recursive call (the adaptive search solving a coarse sub-problem inside
    ``HeuristicSolver.solve``) is not counted twice; self time sums over all
    spans, since self times never overlap.
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    totals: Dict[str, SpanTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, SpanTotals())
        entry.self_s += own[span.id]
        ancestor = by_id.get(span.parent) if span.parent is not None else None
        while ancestor is not None and ancestor.name != span.name:
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if ancestor is None:
            entry.calls += 1
            entry.inclusive_s += span.end - span.start
    return totals
