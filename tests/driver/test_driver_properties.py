"""Property-based driver tests: ordering invariants under random traffic."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.disk import Disk
from repro.driver import ChainsPolicy, DeviceDriver, FlagPolicy, FlagSemantics
from repro.sim import Engine


def random_traffic(draw_ops, policy_factory):
    """Replay a drawn op list against a fresh driver; return the trace."""
    engine = Engine()
    driver = DeviceDriver(engine, Disk(engine), policy_factory())
    issued = []
    for op in draw_ops:
        kind, lbn_step, nsectors, flagged, dep_back = op
        lbn = (7919 * lbn_step) % 500_000
        if kind == "read":
            issued.append(driver.read(lbn, nsectors))
        else:
            deps = None
            if dep_back and issued:
                wants = issued[max(0, len(issued) - dep_back):]
                deps = frozenset(r.id for r in wants if r.is_write)
            issued.append(driver.write(lbn, b"\x5c" * (512 * nsectors),
                                       flag=flagged,
                                       depends_on=deps or None))
    for request in issued:
        engine.run_until(request.done, max_events=2_000_000)
    return driver.trace


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["read", "write", "write"]),
              st.integers(0, 1000), st.sampled_from([2, 8, 16]),
              st.booleans(), st.integers(0, 3)),
    min_size=1, max_size=40)

# the same traffic on four start sectors, so reads meet older writes often
overlap_ops_strategy = st.lists(
    st.tuples(st.sampled_from(["read", "write", "write"]),
              st.integers(0, 3), st.sampled_from([2, 8, 16]),
              st.booleans(), st.integers(0, 3)),
    min_size=1, max_size=40)


#: policies whose reads are admitted on the overlap check alone
NR_POLICIES = [
    lambda: FlagPolicy(FlagSemantics.FULL, read_bypass=True),
    lambda: FlagPolicy(FlagSemantics.BACK, read_bypass=True),
    lambda: FlagPolicy(FlagSemantics.PART, read_bypass=True),
    ChainsPolicy,
]


class TestFlagInvariants:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=ops_strategy)
    def test_part_semantics_hold_in_completion_order(self, ops):
        """No request issued after a flagged write completes before it."""
        trace = random_traffic(ops, lambda: FlagPolicy(FlagSemantics.PART))
        for flagged in (r for r in trace if r.flag):
            for other in trace:
                if other.id > flagged.id:
                    assert other.dispatch_time >= flagged.complete_time - 1e-9

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=ops_strategy)
    def test_full_semantics_barrier_both_ways(self, ops):
        trace = random_traffic(ops, lambda: FlagPolicy(FlagSemantics.FULL))
        for flagged in (r for r in trace if r.flag):
            for other in trace:
                if other.id > flagged.id:
                    assert other.dispatch_time >= flagged.complete_time - 1e-9
                elif other.id < flagged.id:
                    assert flagged.dispatch_time >= other.complete_time - 1e-9

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=overlap_ops_strategy,
           policy_factory=st.sampled_from(NR_POLICIES))
    def test_nr_reads_never_conflict(self, ops, policy_factory):
        """Under every conflict-checked read rule (-NR, and chains' natural
        read bypass) a read never dispatches while an older overlapping
        write is incomplete."""
        trace = random_traffic(ops, policy_factory)
        for read in (r for r in trace if not r.is_write):
            for write in (r for r in trace if r.is_write):
                if write.id < read.id and write.overlaps(read.lbn,
                                                         read.nsectors):
                    assert read.dispatch_time >= write.complete_time - 1e-9


class TestBackInvariants:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=ops_strategy)
    def test_back_blocks_later_requests_behind_the_barrier(self, ops):
        """With BACK semantics a request issued after a flagged one may not
        be scheduled before it *or anything issued before it* (the flagged
        request itself reorders freely with its elders -- the freedom PART
        extends further and FULL removes)."""
        trace = random_traffic(ops, lambda: FlagPolicy(FlagSemantics.BACK))
        for flagged in (r for r in trace if r.flag):
            elders = [r for r in trace if r.id <= flagged.id]
            barrier_clear = max(r.complete_time for r in elders)
            for later in (r for r in trace if r.id > flagged.id):
                assert later.dispatch_time >= barrier_clear - 1e-9

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=ops_strategy)
    def test_back_is_weaker_than_or_equal_to_full(self, ops):
        """Everything BACK allows must still satisfy PART's guarantee."""
        trace = random_traffic(ops, lambda: FlagPolicy(FlagSemantics.BACK))
        for flagged in (r for r in trace if r.flag):
            for other in trace:
                if other.id > flagged.id:
                    assert other.dispatch_time >= flagged.complete_time - 1e-9


class TestChainsInvariants:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=ops_strategy)
    def test_dependencies_complete_before_dispatch(self, ops):
        trace = random_traffic(ops, ChainsPolicy)
        by_id = {r.id: r for r in trace}
        for request in trace:
            for dep in request.depends_on:
                assert by_id[dep].complete_time <= request.dispatch_time + 1e-9

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=ops_strategy)
    def test_transitive_dependencies_complete_before_dispatch(self, ops):
        """The whole ancestor DAG -- not just direct edges -- lands first."""
        trace = random_traffic(ops, ChainsPolicy)
        by_id = {r.id: r for r in trace}
        closure: dict[int, frozenset[int]] = {}
        for request in sorted(trace, key=lambda r: r.id):
            ancestors = set(request.depends_on)
            for dep in request.depends_on:
                ancestors |= closure.get(dep, frozenset())
            closure[request.id] = frozenset(ancestors)
        for request in trace:
            for ancestor in closure[request.id]:
                assert by_id[ancestor].complete_time \
                    <= request.dispatch_time + 1e-9


def last_writer_traffic(draw_ops, policy_factory):
    """Random overlapping writes with per-request bytes; returns the disk."""
    engine = Engine()
    disk = Disk(engine)
    driver = DeviceDriver(engine, disk, policy_factory())
    issued, payloads = [], []
    for i, op in enumerate(draw_ops):
        _kind, lbn_step, nsectors, flagged, _dep = op
        lbn = 1000 + (509 * lbn_step) % 64  # force heavy overlap
        data = bytes([i + 1]) * (512 * nsectors)
        issued.append(driver.write(lbn, data, flag=flagged))
        payloads.append((lbn, data))
    for request in issued:
        engine.run_until(request.done, max_events=2_000_000)
    return payloads, disk


class TestLastWriterWins:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=ops_strategy,
           semantics=st.sampled_from(list(FlagSemantics)))
    def test_platters_hold_the_last_issued_write(self, ops, semantics):
        """Whatever reordering a policy permits, the media must end up
        with the youngest issued data on every sector (the driver's write
        FIFO made observable)."""
        payloads, disk = last_writer_traffic(
            ops, lambda: FlagPolicy(semantics))
        expected: dict[int, bytes] = {}
        sector_size = disk.geometry.sector_size
        for lbn, data in payloads:  # issue order
            for i in range(len(data) // sector_size):
                expected[lbn + i] = data[i * sector_size:(i + 1) * sector_size]
        for sector, data in expected.items():
            assert disk.storage.read(sector) == data


class TestUniversalInvariants:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=ops_strategy,
           semantics=st.sampled_from(list(FlagSemantics)))
    def test_overlapping_writes_complete_in_issue_order(self, ops, semantics):
        """The driver's write FIFO holds under every policy."""
        trace = random_traffic(ops, lambda: FlagPolicy(semantics))
        writes = [r for r in trace if r.is_write]
        for i, first in enumerate(writes):
            for second in writes[i + 1:]:
                if first.id < second.id and first.overlaps(second.lbn,
                                                           second.nsectors):
                    assert first.complete_time <= second.complete_time + 1e-9

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=ops_strategy)
    def test_every_request_completes_with_sane_timestamps(self, ops):
        trace = random_traffic(ops, lambda: FlagPolicy(FlagSemantics.IGNORE))
        assert len(trace) == len(ops)
        for request in trace:
            assert 0 <= request.issue_time <= request.dispatch_time \
                <= request.complete_time
