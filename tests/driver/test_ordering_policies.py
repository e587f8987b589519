"""Unit tests for flag semantics and chains eligibility (no disk involved)."""

import pytest

from repro.driver import ChainsPolicy, FlagPolicy, FlagSemantics
from repro.driver.request import DiskRequest, IOKind
from repro.sim import Engine


def make_request(eng, rid, kind=IOKind.WRITE, lbn=0, nsectors=2,
                 flag=False, depends_on=None):
    data = b"\x00" * (nsectors * 512) if kind is IOKind.WRITE else None
    return DiskRequest(eng, rid, kind, lbn, nsectors, data=data, flag=flag,
                       depends_on=frozenset(depends_on or ()))


@pytest.fixture
def eng():
    return Engine()


def issue_all(policy, requests):
    for request in requests:
        policy.on_issue(request)


class TestIgnore:
    def test_everything_eligible(self, eng):
        policy = FlagPolicy(FlagSemantics.IGNORE)
        reqs = [make_request(eng, i, flag=(i == 2)) for i in range(1, 5)]
        issue_all(policy, reqs)
        assert all(policy.may_dispatch(r) for r in reqs)


class TestPart:
    def test_flagged_blocks_later_requests_only(self, eng):
        policy = FlagPolicy(FlagSemantics.PART)
        w1 = make_request(eng, 1, lbn=0)
        wf = make_request(eng, 2, lbn=10, flag=True)
        w3 = make_request(eng, 3, lbn=20)
        issue_all(policy, [w1, wf, w3])
        assert policy.may_dispatch(w1)      # earlier than flag: free
        assert policy.may_dispatch(wf)      # the flagged request itself
        assert not policy.may_dispatch(w3)  # issued after the flag
        policy.on_complete(wf)
        assert policy.may_dispatch(w3)

    def test_reads_wait_without_nr(self, eng):
        policy = FlagPolicy(FlagSemantics.PART, read_bypass=False)
        wf = make_request(eng, 1, flag=True)
        rd = make_request(eng, 2, kind=IOKind.READ, lbn=100)
        issue_all(policy, [wf, rd])
        assert not policy.may_dispatch(rd)

    def test_reads_bypass_with_nr(self, eng):
        policy = FlagPolicy(FlagSemantics.PART, read_bypass=True)
        wf = make_request(eng, 1, lbn=0, flag=True)
        rd = make_request(eng, 2, kind=IOKind.READ, lbn=100)
        issue_all(policy, [wf, rd])
        assert policy.may_dispatch(rd)

    def test_nr_read_overlapping_pending_write_is_admitted(self, eng):
        """Overlap is the driver's rule (its write FIFO), not the
        policy's: the -NR policy admits every read."""
        policy = FlagPolicy(FlagSemantics.PART, read_bypass=True)
        wf = make_request(eng, 1, lbn=100, nsectors=4, flag=True)
        rd = make_request(eng, 2, kind=IOKind.READ, lbn=102, nsectors=1)
        issue_all(policy, [wf, rd])
        assert policy.may_dispatch(rd)


class TestBack:
    def test_later_requests_wait_for_flag_and_its_predecessors(self, eng):
        policy = FlagPolicy(FlagSemantics.BACK)
        w1 = make_request(eng, 1, lbn=0)
        wf = make_request(eng, 2, lbn=10, flag=True)
        w3 = make_request(eng, 3, lbn=20)
        issue_all(policy, [w1, wf, w3])
        assert policy.may_dispatch(w1)
        assert policy.may_dispatch(wf)  # flagged req reorders with prior non-flagged
        assert not policy.may_dispatch(w3)
        # completing only the flagged request is NOT enough under Back:
        policy.on_complete(wf)
        assert not policy.may_dispatch(w3)
        policy.on_complete(w1)
        assert policy.may_dispatch(w3)


class TestFull:
    def test_flagged_request_waits_for_all_predecessors(self, eng):
        policy = FlagPolicy(FlagSemantics.FULL)
        w1 = make_request(eng, 1, lbn=0)
        wf = make_request(eng, 2, lbn=10, flag=True)
        issue_all(policy, [w1, wf])
        assert policy.may_dispatch(w1)
        assert not policy.may_dispatch(wf)   # unlike Back/Part
        policy.on_complete(w1)
        assert policy.may_dispatch(wf)

    def test_nothing_passes_an_incomplete_flagged_request(self, eng):
        policy = FlagPolicy(FlagSemantics.FULL)
        wf = make_request(eng, 1, flag=True)
        w2 = make_request(eng, 2, lbn=20)
        issue_all(policy, [wf, w2])
        assert not policy.may_dispatch(w2)
        policy.on_complete(wf)
        assert policy.may_dispatch(w2)

    def test_full_is_more_restrictive_than_back_than_part(self, eng):
        """The paper's ordering: Full ⊇ Back ⊇ Part in restrictiveness."""
        scenarios = []
        for semantics in (FlagSemantics.FULL, FlagSemantics.BACK,
                          FlagSemantics.PART):
            policy = FlagPolicy(semantics)
            reqs = [make_request(eng, 1, lbn=0),
                    make_request(eng, 2, lbn=10, flag=True),
                    make_request(eng, 3, lbn=20)]
            issue_all(policy, reqs)
            scenarios.append(sum(policy.may_dispatch(r) for r in reqs))
        full, back, part = scenarios
        assert full <= back <= part


class TestChains:
    def test_dependency_gating(self, eng):
        policy = ChainsPolicy()
        w1 = make_request(eng, 1, lbn=0)
        w2 = make_request(eng, 2, lbn=10, depends_on=[1])
        w3 = make_request(eng, 3, lbn=20)  # independent
        issue_all(policy, [w1, w2, w3])
        assert policy.may_dispatch(w1)
        assert not policy.may_dispatch(w2)
        assert policy.may_dispatch(w3)   # no false dependency (vs flag schemes)
        policy.on_complete(w1)
        assert policy.may_dispatch(w2)

    def test_transitive_chain(self, eng):
        policy = ChainsPolicy()
        reqs = [make_request(eng, 1),
                make_request(eng, 2, depends_on=[1]),
                make_request(eng, 3, depends_on=[2])]
        issue_all(policy, reqs)
        assert [policy.may_dispatch(r) for r in reqs] == [True, False, False]
        policy.on_complete(reqs[0])
        policy.on_complete(reqs[1])
        assert policy.may_dispatch(reqs[2])

    def test_future_dependency_rejected(self, eng):
        policy = ChainsPolicy()
        bad = make_request(eng, 1, depends_on=[5])
        with pytest.raises(ValueError, match="previously issued"):
            policy.on_issue(bad)

    def test_reads_bypass_naturally(self, eng):
        policy = ChainsPolicy()
        w1 = make_request(eng, 1, lbn=0)
        w2 = make_request(eng, 2, lbn=10, depends_on=[1])
        rd = make_request(eng, 3, kind=IOKind.READ, lbn=100)
        issue_all(policy, [w1, w2, rd])
        assert policy.may_dispatch(rd)

    def test_read_of_pending_write_target_is_admitted(self, eng):
        """Overlap is the driver's rule (its write FIFO), not the
        policy's: a read names no dependencies, so chains admit it."""
        policy = ChainsPolicy()
        w1 = make_request(eng, 1, lbn=100, nsectors=4)
        rd = make_request(eng, 2, kind=IOKind.READ, lbn=100, nsectors=2)
        issue_all(policy, [w1, rd])
        assert policy.may_dispatch(rd)


class TestRequestValidation:
    def test_read_with_flag_rejected(self, eng):
        with pytest.raises(ValueError):
            make_request(eng, 1, kind=IOKind.READ, flag=True)

    def test_write_without_data_rejected(self, eng):
        with pytest.raises(ValueError):
            DiskRequest(eng, 1, IOKind.WRITE, 0, 1)

    def test_zero_sectors_rejected(self, eng):
        with pytest.raises(ValueError):
            DiskRequest(eng, 1, IOKind.READ, 0, 0)
