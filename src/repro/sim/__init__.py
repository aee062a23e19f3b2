"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES in the style of SimPy:

- :class:`~repro.sim.environment.Environment` owns the clock and event heap.
- :class:`~repro.sim.events.Event` is the synchronisation primitive;
  :class:`~repro.sim.events.Timeout` fires after a delay.
- Processes are plain Python generators that ``yield`` events; wrap them
  with :meth:`Environment.process`.
- :class:`~repro.sim.resources.Resource` and
  :class:`~repro.sim.resources.Store` provide contention and queueing.

The engine is used by :mod:`repro.engine` to run the simulated inference
server and by :mod:`repro.telemetry` for the jtop-style power sampler.
"""

from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.environment import Environment, Process
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "Store",
    "Timeout",
]
