"""Request-scoped, hierarchical spans on the simulation clock.

The :class:`Observer` is the single collection point for the
observability layer: subsystems open/close :class:`SpanRecord` intervals
(queue wait, prefill, decode stretches, fault episodes), drop
:class:`InstantRecord` point events (retries, mode changes) and append
:class:`CounterRecord` series samples (board power), all stamped with
*simulated* time — never the wall clock — so two seeded runs produce
identical telemetry, byte for byte.

Layout follows the Chrome trace-event model the exporter targets:

- ``group`` is the process-level lane (one experiment, one cluster);
- ``track`` is the thread-level lane (``node0``, ``req17``, ``engine``);
- spans on one track nest through an implicit per-track stack, and a
  parent can also be pinned explicitly (e.g. fault instants nested
  under the affected request's span from another track).

Zero cost when disabled: every mutating method starts with one
``enabled`` check and returns a shared no-op handle, so a run with the
:data:`NULL_OBSERVER` allocates nothing and records nothing — the
guarantee the study-harness speed budget relies on.

Deferred sources: a producer that knows its future records ahead of the
clock (a node's planned decode stretch) registers them with
:meth:`Observer.defer` instead of resuming at every boundary to emit
them.  Before any record is appended or any lane/stack changes — and
before any read — the observer drains every deferred record due at or
before its source's clock, merged across sources by boundary time.  The
record stream, span ids included, is the one eager emission produces
(ties inclusive: a deferred record due at the current instant comes
before anything else emitted at that instant).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

Args = Tuple[Tuple[str, Any], ...]

#: Handle returned by recording methods when the observer is disabled.
NO_SPAN = -1

DEFAULT_GROUP = "main"
DEFAULT_TRACK = "main"


def _args_of(data: Dict[str, Any]) -> Args:
    return tuple(sorted(data.items()))


def _materialize(rows: List[tuple], records: list, cls) -> list:
    """``records`` extended with a ``cls`` for every row it lacks."""
    if len(records) < len(rows):
        records.extend([cls(*row) for row in rows[len(records):]])
    return records


@dataclass(frozen=True)
class SpanRecord:
    """One closed interval of simulated time."""

    span_id: int
    parent_id: Optional[int]
    group: str
    track: str
    name: str
    cat: str
    start_s: float
    end_s: float
    args: Args = ()

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class InstantRecord:
    """One point event."""

    event_id: int
    parent_id: Optional[int]
    group: str
    track: str
    name: str
    cat: str
    time_s: float
    args: Args = ()


@dataclass(frozen=True)
class CounterRecord:
    """One sample of a named series (rendered as a counter track)."""

    group: str
    track: str
    name: str
    time_s: float
    value: float


class _OpenSpan:
    __slots__ = ("span_id", "parent_id", "group", "track", "name", "cat",
                 "start_s", "args")

    def __init__(self, span_id, parent_id, group, track, name, cat,
                 start_s, args):
        self.span_id = span_id
        self.parent_id = parent_id
        self.group = group
        self.track = track
        self.name = name
        self.cat = cat
        self.start_s = start_s
        self.args = args


class _SpanContext:
    """``with obs.span(...):`` support (safe across generator yields)."""

    __slots__ = ("_obs", "_kw", "span_id")

    def __init__(self, obs: "Observer", kw: Dict[str, Any]):
        self._obs = obs
        self._kw = kw
        self.span_id = NO_SPAN

    def __enter__(self) -> "_SpanContext":
        self.span_id = self._obs.begin(**self._kw)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._obs.end(self.span_id)


class _NullSpanContext:
    __slots__ = ()
    span_id = NO_SPAN

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_CTX = _NullSpanContext()


class Observer:
    """Collects spans, instants and counter samples for one run (or many).

    Parameters
    ----------
    enabled:
        When False every method is a no-op; use :data:`NULL_OBSERVER`
        instead of constructing disabled observers.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        # Records are kept as plain tuples in their record type's field
        # order: a tuple is cheap to build and, holding only atoms, the
        # cycle collector stops tracking it, so tens of thousands of
        # live records do not slow every full collection.  The record
        # objects are built on first read.
        self._span_rows: List[tuple] = []
        self._instant_rows: List[tuple] = []
        self._counter_rows: List[tuple] = []
        self._span_records: List[SpanRecord] = []
        self._instant_records: List[InstantRecord] = []
        self._counter_records: List[CounterRecord] = []
        self.metrics = MetricsRegistry()
        self._ids = count(1)
        self._open: Dict[int, _OpenSpan] = {}
        #: (group, track) -> stack of open span ids (implicit parents).
        self._stacks: Dict[Tuple[str, str], List[int]] = {}
        self._group = DEFAULT_GROUP
        self._env = None
        #: Heap of ``(due_s, tie_s, seq, source)`` deferred emissions.
        self._deferred: List[tuple] = []
        self._seq = count()

    # -- records (drained) -------------------------------------------------
    @property
    def spans(self) -> List[SpanRecord]:
        """Closed spans, in close order."""
        return _materialize(self.span_rows(), self._span_records,
                            SpanRecord)

    @property
    def instants(self) -> List[InstantRecord]:
        return _materialize(self.instant_rows(), self._instant_records,
                            InstantRecord)

    @property
    def counters(self) -> List[CounterRecord]:
        return _materialize(self.counter_rows(), self._counter_records,
                            CounterRecord)

    def span_rows(self) -> List[tuple]:
        """Closed spans as tuples in :class:`SpanRecord` field order."""
        self.drain()
        return self._span_rows

    def instant_rows(self) -> List[tuple]:
        """Instants as tuples in :class:`InstantRecord` field order."""
        self.drain()
        return self._instant_rows

    def counter_rows(self) -> List[tuple]:
        """Counter samples as tuples in :class:`CounterRecord` field
        order."""
        self.drain()
        return self._counter_rows

    # -- deferred sources --------------------------------------------------
    def defer(self, source, due_s: float, tie_s: float) -> None:
        """Register a source whose next record is due at ``due_s``.

        ``source.clock`` is the environment it runs on;
        ``source.emit_deferred(obs)`` records what is due (through the
        public methods, with explicit timestamps) and returns the next
        ``(due_s, tie_s)`` or None.  Equal due times drain in ``tie_s``
        order, then registration order.
        """
        if self.enabled:
            heapq.heappush(self._deferred,
                           (due_s, tie_s, next(self._seq), source))

    def drain(self) -> None:
        """Emit every deferred record due at or before its source's clock."""
        if not self._deferred:
            return
        # Detach the heap while sources emit, so their own record calls
        # do not re-enter the drain.
        heap, self._deferred = self._deferred, []
        while heap and heap[0][0] <= heap[0][3].clock.now:
            source = heap[0][3]
            nxt = source.emit_deferred(self)
            if nxt is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (nxt[0], nxt[1], next(self._seq),
                                         source))
        self._deferred = heap

    # -- clock / lanes -----------------------------------------------------
    def bind(self, env) -> None:
        """Read subsequent implicit timestamps from ``env.now``.

        Rebinding to another clock drains what is due on the old one
        and drops the rest: that run is over."""
        if self.enabled:
            if env is not self._env:
                self.drain()
                self._deferred = []
            self._env = env

    def set_group(self, label: str) -> None:
        """Switch the process-level lane for subsequent records."""
        if self.enabled:
            self.drain()
            self._group = label

    def _now(self, time_s: Optional[float]) -> float:
        if time_s is not None:
            return float(time_s)
        return float(self._env.now) if self._env is not None else 0.0

    # -- spans -------------------------------------------------------------
    def begin(self, name: str, cat: str = "", track: str = DEFAULT_TRACK,
              parent: Optional[int] = None, time_s: Optional[float] = None,
              **args) -> int:
        """Open a span; returns its id (:data:`NO_SPAN` when disabled)."""
        if not self.enabled:
            return NO_SPAN
        self.drain()
        span_id = next(self._ids)
        stack = self._stacks.setdefault((self._group, track), [])
        if parent is None and stack:
            parent = stack[-1]
        if parent == NO_SPAN:
            parent = None
        self._open[span_id] = _OpenSpan(
            span_id, parent, self._group, track, name, cat,
            self._now(time_s), _args_of(args),
        )
        stack.append(span_id)
        return span_id

    def end(self, span_id: int, time_s: Optional[float] = None,
            **args) -> None:
        """Close an open span (no-op for :data:`NO_SPAN` / unknown ids)."""
        if not self.enabled or span_id == NO_SPAN:
            return
        self.drain()
        open_span = self._open.pop(span_id, None)
        if open_span is None:
            return
        stack = self._stacks.get((open_span.group, open_span.track))
        if stack and span_id in stack:
            stack.remove(span_id)
        merged = open_span.args + _args_of(args) if args else open_span.args
        self._span_rows.append((
            span_id, open_span.parent_id, open_span.group, open_span.track,
            open_span.name, open_span.cat, open_span.start_s,
            self._now(time_s), merged))

    def complete(self, name: str, start_s: float, end_s: float,
                 cat: str = "", track: str = DEFAULT_TRACK,
                 parent: Optional[int] = None, **args) -> int:
        """Record an already-finished interval (fast-forward stretches)."""
        if not self.enabled:
            return NO_SPAN
        self.drain()
        span_id = next(self._ids)
        stack = self._stacks.get((self._group, track))
        if parent is None and stack:
            parent = stack[-1]
        if parent == NO_SPAN:
            parent = None
        self._span_rows.append((
            span_id, parent, self._group, track, name, cat, float(start_s),
            float(end_s), _args_of(args)))
        return span_id

    def span(self, name: str, cat: str = "", track: str = DEFAULT_TRACK,
             parent: Optional[int] = None, **args):
        """Context manager form of :meth:`begin` / :meth:`end`."""
        if not self.enabled:
            return _NULL_CTX
        return _SpanContext(self, dict(name=name, cat=cat, track=track,
                                       parent=parent, **args))

    def finish_open(self, time_s: Optional[float] = None) -> int:
        """Close every still-open span (run teardown); returns the count."""
        if not self.enabled:
            return 0
        self.drain()
        if not self._open:
            return 0
        closed = 0
        for span_id in sorted(self._open):
            self.end(span_id, time_s=time_s, unfinished=True)
            closed += 1
        return closed

    # -- point events ------------------------------------------------------
    def instant(self, name: str, cat: str = "", track: str = DEFAULT_TRACK,
                parent: Optional[int] = None, time_s: Optional[float] = None,
                **args) -> int:
        """Record a point event; returns its id."""
        if not self.enabled:
            return NO_SPAN
        self.drain()
        event_id = next(self._ids)
        stack = self._stacks.get((self._group, track))
        if parent is None and stack:
            parent = stack[-1]
        if parent == NO_SPAN:
            parent = None
        self._instant_rows.append((
            event_id, parent, self._group, track, name, cat,
            self._now(time_s), _args_of(args)))
        return event_id

    def counter(self, name: str, value: float, track: str = DEFAULT_TRACK,
                time_s: Optional[float] = None) -> None:
        """Append one sample to a counter series."""
        if not self.enabled:
            return
        self.drain()
        self._counter_rows.append((
            self._group, track, name, self._now(time_s), float(value)))

    # -- introspection -----------------------------------------------------
    def open_start(self, span_id: int) -> Optional[float]:
        """Start time of a still-open span (None if unknown/closed)."""
        open_span = self._open.get(span_id)
        return None if open_span is None else open_span.start_s

    def __len__(self) -> int:
        self.drain()
        return (len(self._span_rows) + len(self._instant_rows)
                + len(self._counter_rows))

    def spans_named(self, name: str) -> List[SpanRecord]:
        """Closed spans with the given name, in close order."""
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        """Drop all records (open spans included); keep lanes and clock."""
        self.drain()
        for rows in (self._span_rows, self._instant_rows, self._counter_rows,
                     self._span_records, self._instant_records,
                     self._counter_records):
            rows.clear()
        self.metrics.clear()
        self._open.clear()
        self._stacks.clear()


#: Shared disabled observer — the default everywhere observability is
#: off.  Never record into it; every method checks ``enabled`` first.
NULL_OBSERVER = Observer(enabled=False)
