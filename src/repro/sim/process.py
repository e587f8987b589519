"""Generator-based simulated processes.

A :class:`Process` drives a generator: each value the generator yields must be
an :class:`~repro.sim.events.Event`; the process sleeps until the event fires
and is resumed with the event's value (or has the event's exception thrown
into it).  A process is itself an event, so processes can ``yield`` other
processes to join them, and ``return`` values propagate to joiners.

Sub-operations compose with ``yield from``, exactly like kernel code calling
helper routines that may block::

    def syscall(fs, path):
        inode = yield from fs.namei(path)     # may block on disk reads
        return inode
"""

from __future__ import annotations

from typing import Generator

from repro.sim.engine import Engine
from repro.sim.events import Event


class ProcessCrashed(RuntimeError):
    """Wraps an exception that escaped a simulated process."""

    def __init__(self, process: "Process", original: BaseException) -> None:
        super().__init__(f"process {process.name!r} crashed: {original!r}")
        self.process = process
        self.original = original


class Process(Event):
    """A running simulated process; also an event that fires on completion.

    Attributes of interest to instrumentation:

    * ``name`` -- label for traces and error messages.
    * ``cpu_time`` -- seconds of CPU charged via :class:`repro.sim.cpu.CPU`.
    * ``started_at`` / ``finished_at`` -- simulated lifetime bounds.
    """

    __slots__ = ("generator", "name", "cpu_time", "started_at", "finished_at",
                 "_waiting_on")

    def __init__(self, engine: Engine, generator: Generator, name: str = "") -> None:
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.cpu_time = 0.0
        self.started_at = engine.now
        self.finished_at: float | None = None
        self._waiting_on: Event | None = None
        # Kick off on the next engine dispatch, at the current time.  The
        # bootstrap event goes through the ordinary wake path so processes
        # start in FIFO order with every other same-instant event.
        start = Event(engine)
        start.callbacks.append(self._resume)
        start.succeed()

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _process(self) -> None:
        # A process that crashes with nobody joining it (no callbacks) would
        # otherwise die silently and deadlock everything that depends on its
        # side effects -- surface the crash at the engine loop instead.
        had_watchers = bool(self.callbacks)
        super()._process()
        if not self.ok and not had_watchers:
            raise self.value

    def _resume(self, fired: Event) -> None:
        """Advance the generator by one step.  Engine callback only."""
        self._waiting_on = None
        previous = self.engine.current_process
        self.engine.current_process = self
        try:
            if fired.ok:
                # The bootstrap event's value is None, so the first resume is
                # the generator-protocol-required send(None).
                target = self.generator.send(fired.value)
            else:
                target = self.generator.throw(fired.value)
        except StopIteration as stop:
            self.finished_at = self.engine.now
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - deliberate boundary
            self.finished_at = self.engine.now
            self.fail(ProcessCrashed(self, exc))
            return
        finally:
            self.engine.current_process = previous
        if not isinstance(target, Event):
            crash = TypeError(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event instances")
            self.finished_at = self.engine.now
            self.fail(ProcessCrashed(self, crash))
            return
        self._waiting_on = target
        target._add_callback(self._resume)

    def __repr__(self) -> str:
        state = "done" if self.triggered else (
            "waiting" if self._waiting_on is not None else "ready")
        return f"<Process {self.name!r} {state}>"
