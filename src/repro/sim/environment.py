"""The simulation environment: clock, event heap, process scheduling."""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import AbsoluteTimeout, Event, Interrupt, Timeout

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process; also an event that fires when the process ends.

    A process wraps a generator.  Each value the generator yields must be
    an :class:`Event`; the process sleeps until that event fires, then is
    resumed with the event's value (or the event's exception thrown in).
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process target is not a generator: {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off at current sim time via an immediately-firing event.
        init = Event(env)
        init.callbacks.append(self._resume)
        self._target: Optional[Event] = init
        init.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        ev = Event(self.env)
        ev.callbacks.append(self._resume_interrupt)
        ev.succeed(Interrupt(cause))

    # -- internal resumption ----------------------------------------------
    def _resume_interrupt(self, ev: Event) -> None:
        if self.triggered:
            return  # finished between scheduling and delivery
        # Detach from the event we were waiting on (it may still fire later;
        # the stale callback checks identity below).
        self._target = None
        self._step(throw=ev.value)

    def _resume(self, ev: Event) -> None:
        if self.triggered or ev is not self._target:
            return  # stale wake-up (e.g. after an interrupt re-targeted us)
        self._target = None
        if ev.ok:
            self._step(send=ev.value)
        else:
            self._step(throw=ev.value)

    def _step(self, send: Any = None, throw: Any = None) -> None:
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # Process chose not to handle the interrupt: treat as failure.
            self.fail(exc)
            return
        except Exception as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
        if target.env is not self.env:
            raise SimulationError("process yielded event from another environment")
        self._target = target
        if target.processed:
            # Already done: resume immediately (via a zero-delay event so
            # execution order stays heap-driven and deterministic).
            bounce = Event(self.env)
            bounce.callbacks.append(self._resume)
            self._target = bounce
            if target.ok:
                bounce.succeed(target.value)
            else:
                bounce._ok = False
                bounce._value = target.value
                self.env.schedule(bounce)
        else:
            target.callbacks.append(self._resume)


def _raise_unwatched(event: Event) -> None:
    """Re-raise the failure of a process nobody waits on (a crashed
    serve loop, sampler or probe must fail the run, not stop quietly).
    An unhandled :class:`Interrupt` stays a quiet end of the process."""
    if isinstance(event, Process) and not isinstance(event._value, Interrupt):
        raise event._value


class Environment:
    """Owns simulated time and executes events in timestamp order.

    Ties are broken by insertion order, making runs fully deterministic.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = count()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factory helpers ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> AbsoluteTimeout:
        """Create an event firing at absolute sim time ``when`` (>= now)."""
        return AbsoluteTimeout(self, when, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a process from a generator; returns its completion event."""
        return Process(self, generator, name=name)

    # -- scheduling/execution ----------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Put a triggered event on the heap ``delay`` seconds from now."""
        self.schedule_at(event, self._now + delay)

    def schedule_at(self, event: Event, when: float) -> None:
        """Put a triggered event on the heap at absolute time ``when``.

        All scheduling funnels through here so every event gets its
        tie-break counter from the same :func:`itertools.count` — events
        with equal timestamps always fire in the order they were
        scheduled, whether they came from relative timeouts, absolute
        timeouts, or immediate (zero-delay) events.
        """
        if event._scheduled:
            raise SimulationError("event scheduled twice")
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        event._scheduled = True
        heapq.heappush(self._heap, (when, next(self._counter), event))

    def step(self) -> None:
        """Process the single next event."""
        if not self._heap:
            raise SimulationError("step() on empty event heap")
        when, _, event = heapq.heappop(self._heap)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        if not event._ok and not event.callbacks:
            _raise_unwatched(event)
        event._run_callbacks()

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none remain."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float] = None) -> Any:
        """Run until the heap drains or sim time reaches ``until``.

        If ``until`` is an :class:`Event`, run until it fires and return
        its value (raising its exception if it failed).
        """
        if isinstance(until, Event):
            target = until
            while not target.processed:
                if not self._heap:
                    raise SimulationError(
                        "simulation ran out of events before target event fired"
                    )
                self.step()
            if target.ok:
                return target.value
            raise target.value
        limit = float("inf") if until is None else float(until)
        while self._heap and self._heap[0][0] <= limit:
            self.step()
        if limit != float("inf"):
            self._now = max(self._now, limit)
        return None
