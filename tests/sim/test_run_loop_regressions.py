"""Regression tests for three run-loop bugs.

1. ``max_events`` off-by-one: every run loop checked ``processed >
   max_events`` *after* dispatching, so a budget of N let N+1 events run
   -- and a workload of exactly N events tripped the guard instead of
   completing.  The guard now fires before dispatch: exactly N events
   run, and an exactly-N workload finishes cleanly.

2. Late-callback delivery loss: subscribing to an already-processed
   event wrapped the callback in a zero-delay ``Timeout``, which was
   silently dropped whenever the run loop stopped first -- ``run(until=
   ...)`` or ``run_to`` with a horizon short of the wrapper's timestamp,
   or ``run_until`` returning because its awaited event completed before
   the wrapper was dispatched.  Late subscriptions now go through the
   engine's deferred queue, drained before every dispatch and at every
   run-loop exit, so they can never be lost.

3. ``step()`` stranding a late callback: it drained the deferred queue
   only *before* its dispatch.  A dispatch that subscribed to an
   already-processed event and left the heap empty made
   ``pending_events`` read 0, so a ``while eng.pending_events:
   eng.step()`` driver (the recording harness, the crash scheduler)
   stopped with the subscriber never resumed.  ``step()`` now also
   drains after its dispatch, as the run loops do.
"""

import pytest

from repro.sim import Engine, SimulationError


class TestMaxEventsBudget:
    def test_budget_dispatches_exactly_n_then_raises(self):
        eng = Engine()
        seen = []
        for tag in range(10):
            eng.call_later(float(tag), seen.append, tag)
        with pytest.raises(SimulationError, match="max_events=5"):
            eng.run(max_events=5)
        # the old loops dispatched a 6th event before noticing
        assert seen == [0, 1, 2, 3, 4]
        assert eng.events_processed == 5

    def test_exactly_n_workload_completes_cleanly(self):
        eng = Engine()
        seen = []
        for tag in range(5):
            eng.call_later(float(tag), seen.append, tag)
        eng.run(max_events=5)  # the old guard raised here
        assert seen == [0, 1, 2, 3, 4]
        assert eng.pending_events == 0

    def test_run_to_budget_boundary(self):
        eng = Engine()
        seen = []
        for tag in range(6):
            eng.call_later(1.0, seen.append, tag)
        with pytest.raises(SimulationError, match="max_events=3"):
            eng.run_to(2.0, max_events=3)
        assert seen == [0, 1, 2]

        eng = Engine()
        seen = []
        for tag in range(3):
            eng.call_later(1.0, seen.append, tag)
        eng.run_to(2.0, max_events=3)
        assert seen == [0, 1, 2]
        assert eng.now == 2.0

    def test_run_until_budget_boundary(self):
        def build():
            eng = Engine()

            def worker():
                for _ in range(4):
                    yield eng.timeout(1.0)
                return "done"

            return eng, eng.process(worker())

        # measure the exact event count of the workload...
        eng, proc = build()
        assert eng.run_until(proc) == "done"
        exact = eng.events_processed

        # ...a budget of exactly that count completes,
        eng, proc = build()
        assert eng.run_until(proc, max_events=exact) == "done"

        # ...one less raises before dispatching the final event
        eng, proc = build()
        with pytest.raises(SimulationError, match="max_events"):
            eng.run_until(proc, max_events=exact - 1)


class TestLateCallbackDelivery:
    def test_delivered_when_run_until_horizon_is_in_the_past(self):
        """The ``run(until=...)`` drop: the old code scheduled a wrapper
        Timeout at ``now``, which a horizon short of ``now`` never
        dispatched -- the callback was silently lost."""
        eng = Engine()
        ev = eng.event()
        ev.succeed("v")
        eng.timeout(5.0)
        eng.run()
        assert eng.now == 5.0

        seen = []
        ev._add_callback(lambda e: seen.append(e.value))
        eng.run(until=2.0)  # dispatches nothing; must still deliver
        assert seen == ["v"]
        assert eng.now == 5.0  # the past stays the past
        assert eng.pending_events == 0  # no wrapper left behind

    def test_delivered_when_run_to_stops_first(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed("v")
        eng.timeout(5.0)
        eng.run()

        seen = []
        ev._add_callback(lambda e: seen.append(e.value))
        eng.run_to(2.0)
        assert seen == ["v"]
        assert eng.pending_events == 0

    def test_delivered_when_awaited_event_completes_first(self):
        """A subscription made mid-run, after the awaited process's
        completion is already enqueued: the old wrapper Timeout was still
        pending when ``run_until`` returned."""
        eng = Engine()
        ev = eng.event()
        ev.succeed("v")
        eng.run()

        seen = []

        def worker():
            yield eng.timeout(1.0)
            return "done"

        proc = eng.process(worker())
        eng.call_later(1.0, lambda: ev._add_callback(
            lambda e: seen.append(e.value)))
        assert eng.run_until(proc) == "done"
        assert seen == ["v"]
        assert eng.pending_events == 0


class TestStepDeliversLateCallbacks:
    def test_step_resumes_process_waiting_on_processed_event(self):
        """Process B yields ``done`` after ``done`` was processed at t=1;
        the dispatch that resumes B leaves the heap empty, and stepping
        until ``pending_events`` reads 0 must still resume B."""
        eng = Engine()
        done = eng.event()
        seen = []

        def a():
            yield eng.timeout(1.0)
            done.succeed("x")

        def b():
            yield eng.timeout(2.0)
            value = yield done  # already processed at t=1
            seen.append((value, eng.now))

        eng.process(a(), name="A")
        proc_b = eng.process(b(), name="B")
        while eng.pending_events:
            eng.step()
        assert seen == [("x", 2.0)]
        assert proc_b.triggered
        assert eng.pending_events == 0
