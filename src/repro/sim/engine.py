"""The discrete-event engine: clock, event queue and run loops.

The engine owns the simulated clock, builds events/timeouts/processes,
and holds the one event queue: a binary heap of ``(time, sequence,
event)`` entries processed one event at a time.  Events enqueue
themselves by calling the engine directly (``_schedule``/``_wake``), and
late subscriptions to already-processed events go through a deferred
queue (``_defer``) that every run loop drains.

There is one event loop.  A batched array-sort queue beats the heap on
synthetic timer churn but not on the copy/remove workloads, where the
pending-event population stays small and heap sifts are cheap.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.sim.events import Event, Timeout

__all__ = ["Engine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make progress or a process crashed."""


_DRAINED_MSG = ("event heap drained at t={:.6f} before the awaited "
                "event fired (deadlock or missing wakeup)")


class Engine:
    """The event loop and simulated clock.

    Entries at equal times fire in insertion order, which makes every
    simulation run fully deterministic for a given seed.

    Typical use::

        eng = Engine()

        def worker():
            yield eng.timeout(1.5)
            return "done"

        proc = eng.process(worker())
        eng.run_until(proc)
        assert eng.now == 1.5 and proc.value == "done"
    """

    #: recorded with every benchmark cell (there is one event loop)
    kernel_name = "python"

    __slots__ = ("now", "current_process", "obs", "trace_hook",
                 "_heap", "_seq", "_event_count", "_deferred")

    def __init__(self) -> None:
        self.now: float = 0.0
        #: the process currently being resumed (None outside process context)
        self.current_process = None
        #: the machine's observability session (None = tracing off); set by
        #: Observability.attach() before any component is constructed
        self.obs = None
        #: per-event dispatch hook ``hook(when, event)``; must be passive
        #: (read-only) so dispatch order and timestamps never change
        self.trace_hook = None
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._event_count = 0
        #: late subscriptions to already-processed events, delivered before
        #: the next dispatch and flushed at every run-loop exit
        self._deferred: deque = deque()

    # -- event construction ---------------------------------------------
    def event(self) -> Event:
        """Create an untriggered one-shot event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> "Process":  # noqa: F821
        """Spawn *generator* as a simulated process, started on the next step."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after *delay* simulated seconds (no process)."""
        event = Timeout(self, delay)
        event.callbacks.append(lambda _ev: fn(*args))

    # -- the queue (called by events) -------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        """Enqueue *event* at ``now + delay``."""
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, event))

    def _wake(self, event: Event) -> None:
        """Enqueue *event* at the current instant (``succeed``/``fail``)."""
        self._seq += 1
        heappush(self._heap, (self.now, self._seq, event))

    def _defer(self, fn: Callable, event: Event) -> None:
        """Queue ``fn(event)`` for delivery before the next dispatch."""
        self._deferred.append((fn, event))

    def _drain_deferred(self) -> None:
        deferred = self._deferred
        while deferred:
            fn, event = deferred.popleft()
            fn(event)

    # -- run loops ---------------------------------------------------------
    # The loops inline step()'s body: they are the hottest frames of every
    # simulation (one iteration per event), and the method call + repeated
    # attribute lookups cost ~15% of total runtime at benchmark scale.
    # step() stays as the single-event API.

    def step(self) -> None:
        """Process the single next event on the queue.

        Late callbacks are delivered before the dispatch and again after
        it, as the run loops do, so a dispatch that subscribes to an
        already-processed event never leaves the callback stranded
        behind an empty heap.
        """
        if self._deferred:
            self._drain_deferred()
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        when, _seq, event = heappop(self._heap)
        if when < self.now:
            raise SimulationError(f"time went backwards: {when} < {self.now}")
        self.now = when
        self._event_count += 1
        hook = self.trace_hook
        if hook is not None:
            hook(when, event)
        event._process()
        if self._deferred:
            self._drain_deferred()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, the clock passes *until*, or *max_events*.

        ``until`` is an absolute simulated time; events scheduled at exactly
        *until* are processed, and the clock is left at ``max(now, until)``
        whether the queue drained early or still holds later events (the same
        semantics as :meth:`run_to` -- in particular the clock never moves
        backwards when *until* is already in the past).  ``max_events`` is a
        safety valve for tests: the loop dispatches at most that many events
        and raises :class:`SimulationError` when one more would be needed,
        rather than hanging.
        """
        heap = self._heap
        pop = heappop
        hook = self.trace_hook
        deferred = self._deferred
        processed = 0
        if deferred:
            self._drain_deferred()
        while heap:
            if until is not None and heap[0][0] > until:
                break
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} at t={self.now:.6f}")
            when, _seq, event = pop(heap)
            if when < self.now:
                raise SimulationError(
                    f"time went backwards: {when} < {self.now}")
            self.now = when
            self._event_count += 1
            if hook is not None:
                hook(when, event)
            event._process()
            processed += 1
            if deferred:
                self._drain_deferred()
        if until is not None and until > self.now:
            self.now = until
        if deferred:
            self._drain_deferred()

    def run_to(self, when: float, max_events: Optional[int] = None) -> None:
        """Advance the clock to the absolute instant *when*.

        Processes every event scheduled at or before *when* (inclusive: two
        runs stopped at the same instant see the same event prefix, which is
        what makes crash-state replay deterministic) and leaves the clock at
        exactly *when* even if the queue still holds later events or drained
        early.
        """
        heap = self._heap
        pop = heappop
        hook = self.trace_hook
        deferred = self._deferred
        processed = 0
        if deferred:
            self._drain_deferred()
        while heap and heap[0][0] <= when:
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} at t={self.now:.6f}")
            event_when, _seq, event = pop(heap)
            if event_when < self.now:
                raise SimulationError(
                    f"time went backwards: {event_when} < {self.now}")
            self.now = event_when
            self._event_count += 1
            if hook is not None:
                hook(event_when, event)
            event._process()
            processed += 1
            if deferred:
                self._drain_deferred()
        self.now = max(self.now, when)
        if deferred:
            self._drain_deferred()

    def run_until(self, event: Event, max_events: Optional[int] = None) -> Any:
        """Run until *event* has been processed; return its value.

        Raises the event's exception if it failed, and
        :class:`SimulationError` if the queue drains first.
        """
        heap = self._heap
        pop = heappop
        hook = self.trace_hook
        deferred = self._deferred
        processed = 0
        if deferred:
            self._drain_deferred()
        while not event._processed:
            if not heap:
                raise SimulationError(_DRAINED_MSG.format(self.now))
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} at t={self.now:.6f}")
            when, _seq, next_event = pop(heap)
            if when < self.now:
                raise SimulationError(
                    f"time went backwards: {when} < {self.now}")
            self.now = when
            self._event_count += 1
            if hook is not None:
                hook(when, next_event)
            next_event._process()
            processed += 1
            if deferred:
                self._drain_deferred()
        if deferred:
            self._drain_deferred()
        if not event.ok:
            raise event.value
        return event.value

    def run_all(self, events: list[Event], max_events: Optional[int] = None) -> list[Any]:
        """Run until every event in *events* has fired; return their values."""
        return [self.run_until(event, max_events=max_events) for event in events]

    # -- introspection -----------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total events processed since construction (for instrumentation)."""
        return self._event_count

    @property
    def pending_events(self) -> int:
        """Scheduled-but-undispatched entries (the queue length)."""
        return len(self._heap)

    @property
    def next_event_time(self) -> Optional[float]:
        """The next event's timestamp, or None when nothing is pending."""
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:
        return f"<Engine t={self.now:.6f} pending={len(self._heap)}>"
