"""One-shot events for the discrete-event engine.

An :class:`Event` is the unit of coordination: processes yield events and are
resumed when the event *fires*.  Firing is split into two steps so that event
processing order is deterministic and independent of who calls
:meth:`Event.succeed`:

1. ``succeed()`` / ``fail()`` marks the event triggered and enqueues it on the
   engine at the current simulated time;
2. the engine pops it and runs its callbacks (resuming waiting processes).
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class Event:
    """A one-shot occurrence that processes can wait on.

    Events are created through :meth:`repro.sim.engine.Engine.event` (or the
    convenience constructors on the primitives).  An event may succeed with a
    value or fail with an exception; either way it fires exactly once.
    """

    __slots__ = ("engine", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, engine: "Engine") -> None:  # noqa: F821
        self.engine = engine
        #: callables invoked with this event when it is processed
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value (or the failure exception)."""
        return self._value if self._exc is None else self._exc

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful; waiting processes resume with *value*."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        self.engine._wake(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed; waiting processes see *exc* thrown into them."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        self.engine._wake(self)
        return self

    # -- engine internals ----------------------------------------------
    def _process(self) -> None:
        """Run callbacks.  Called by the engine only."""
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._processed:
            # Late subscription to an already-processed event: deliver
            # through the engine's deferred queue -- right after the
            # current dispatch, or at run-loop exit -- so the caller never
            # re-enters synchronously and the callback can never be
            # dropped by a run that stops before a wrapper event fires.
            self.engine._defer(callback, self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        self._triggered = True
        self._value = value
        engine._schedule(self, delay)
