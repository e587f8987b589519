"""Run-loop semantics of the engine.

The engine's run loops (``run``, ``run_to``, ``run_until``) and the
single-event ``step`` must agree on everything a simulation can observe:
event order at equal timestamps (FIFO by schedule sequence), the clock
each loop leaves behind, error detection, and ``events_processed``
accounting.  The scripted schedule below mixes every enqueue path with
equal-time ties; stepping through it one event at a time must reproduce
one ``run()`` call exactly.
"""

import pytest

from repro.sim import Engine, SimulationError


# ---------------------------------------------------------------------------
# a scripted schedule exercising every enqueue path with equal-time ties
# ---------------------------------------------------------------------------

def scripted_engine():
    """Build a fixed mixed workload; return (engine, trace list).

    The script mixes processes, awaited timeouts, bare (never-awaited)
    timeouts, ``call_later`` timers and event wakes, with several events
    landing at the same instant -- the FIFO tie-break is where a run loop
    is most likely to diverge.
    """
    eng = Engine()
    trace = []
    gate = eng.event()

    def ticker(tag, period, count):
        for index in range(count):
            yield eng.timeout(period)
            trace.append((tag, index, eng.now))

    def opener():
        yield eng.timeout(3.0)
        trace.append(("open", eng.now))
        gate.succeed("opened")

    def waiter(tag):
        value = yield gate
        trace.append((tag, value, eng.now))
        yield eng.timeout(0.5)
        trace.append((tag, "after", eng.now))

    eng.process(ticker("a", 1.0, 6), name="a")
    eng.process(ticker("b", 1.5, 4), name="b")
    eng.process(opener(), name="opener")
    for index in range(3):
        eng.process(waiter(f"w{index}"), name=f"w{index}")
    for delay in (2.0, 2.0, 2.0, 4.25):
        eng.call_later(delay, lambda d=delay: trace.append(
            ("timer", d, eng.now)))
    eng.timeout(2.5)   # bare timeout: scheduled, never awaited
    eng.timeout(10.0)  # bare timeout landing after everything else
    return eng, trace


def scripted_run():
    eng, trace = scripted_engine()
    eng.run()
    return eng, trace


class TestScriptedSchedule:
    def test_determinism_across_repeated_runs(self):
        eng_a, trace_a = scripted_run()
        eng_b, trace_b = scripted_run()
        assert trace_a
        assert trace_a == trace_b
        assert eng_a.now == eng_b.now
        assert eng_a.events_processed == eng_b.events_processed

    def test_single_stepping_matches_run(self):
        """step() one event at a time reaches the same trace, clock and
        event count as one run() call, with next_event_time honest at
        every step."""
        ref_eng, ref_trace = scripted_run()
        eng, trace = scripted_engine()
        steps = 0
        while eng.pending_events:
            upcoming = eng.next_event_time
            eng.step()
            assert eng.now == upcoming
            steps += 1
        assert trace == ref_trace
        assert eng.now == ref_eng.now
        assert steps == eng.events_processed == ref_eng.events_processed

    def test_trace_hook_sees_every_dispatch(self):
        """The passive hook observes each dispatched event exactly once,
        in dispatch order, without changing the simulation."""
        _ref_eng, ref_trace = scripted_run()
        eng, trace = scripted_engine()
        seen = []
        eng.trace_hook = lambda when, event: seen.append(when)
        eng.run()
        assert trace == ref_trace
        assert len(seen) == eng.events_processed
        assert seen == sorted(seen)


class TestBasicSemantics:
    def test_equal_time_events_fire_fifo(self):
        eng = Engine()
        order = []
        for tag in range(8):
            eng.call_later(1.0, order.append, tag)
        eng.run()
        assert order == list(range(8))

    def test_time_went_backwards_detected_by_run(self):
        eng = Engine()
        eng.timeout(1.0)
        eng.now = 5.0  # corrupt the clock past the scheduled event
        with pytest.raises(SimulationError, match="backwards"):
            eng.run()

    def test_time_went_backwards_detected_by_step(self):
        eng = Engine()
        eng.timeout(1.0)
        eng.now = 5.0
        with pytest.raises(SimulationError, match="backwards"):
            eng.step()

    def test_step_on_empty_heap_raises(self):
        with pytest.raises(SimulationError, match="empty"):
            Engine().step()

    def test_deadlock_detected_by_run_until(self):
        eng = Engine()
        ev = eng.event()  # never triggered

        def waiter():
            yield ev

        with pytest.raises(SimulationError, match="deadlock|drained"):
            eng.run_until(eng.process(waiter()))


class TestClockLeaveSemantics:
    def test_run_drains_and_keeps_last_event_time(self):
        eng = Engine()
        eng.timeout(2.0)
        eng.run()
        assert eng.now == 2.0
        eng.run()  # empty heap: no-op
        assert eng.now == 2.0

    def test_run_until_horizon_reached_past_drain(self):
        eng = Engine()
        eng.timeout(1.0)
        eng.run(until=7.0)
        assert eng.now == 7.0

    def test_run_never_rewinds_clock(self):
        eng = Engine()
        eng.timeout(5.0)
        eng.run()
        eng.run(until=2.0)
        assert eng.now == 5.0
        eng.run_to(2.0)
        assert eng.now == 5.0

    def test_run_stops_before_events_past_horizon(self):
        eng = Engine()
        seen = []
        for delay in (1.0, 4.0, 4.0, 9.0):
            eng.call_later(delay, seen.append, delay)
        eng.run(until=4.0)
        assert seen == [1.0, 4.0, 4.0]
        assert eng.now == 4.0
        assert eng.pending_events == 1

    def test_run_to_matches_run_until_state(self):
        def build():
            eng = Engine()
            seen = []
            for delay in (1.0, 3.0, 3.0, 8.0):
                eng.call_later(delay, seen.append, delay)
            return eng, seen

        a, seen_a = build()
        a.run(until=3.0)
        b, seen_b = build()
        b.run_to(3.0)
        assert a.now == b.now == 3.0
        assert seen_a == seen_b == [1.0, 3.0, 3.0]
        assert a.events_processed == b.events_processed

    def test_run_until_leaves_clock_at_completion(self):
        eng = Engine()

        def worker():
            yield eng.timeout(1.5)
            return "done"

        proc = eng.process(worker())
        eng.timeout(9.0)  # later event must not be dispatched
        assert eng.run_until(proc) == "done"
        assert eng.now == 1.5
        assert eng.pending_events == 1
