"""Discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs: a small,
deterministic, generator-based discrete-event engine in the style of simpy,
written from scratch.  Simulated processes are plain generator functions that
``yield`` :class:`~repro.sim.events.Event` objects (timeouts, lock acquires,
I/O completions) and are resumed when the event fires.

Public surface:

* :class:`Engine` -- the event loop and clock.
* :class:`Event`, :class:`Timeout` -- one-shot occurrences.
* :class:`Process` -- a running coroutine; itself an event (joinable).
* :class:`Lock`, :class:`Semaphore`, :class:`WaitQueue`, :class:`FIFOQueue`
  -- synchronisation primitives.
* :class:`CPU` -- a single-server compute resource with per-process
  accounting, used to model the 33 MHz i486 of the paper's testbed.

There is one event loop: the engine's binary heap.
"""

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.process import Process, ProcessCrashed
from repro.sim.primitives import FIFOQueue, Lock, Semaphore, WaitQueue
from repro.sim.cpu import CPU

__all__ = [
    "CPU",
    "Engine",
    "Event",
    "FIFOQueue",
    "Lock",
    "Process",
    "ProcessCrashed",
    "Semaphore",
    "SimulationError",
    "Timeout",
    "WaitQueue",
]
