"""Ordering policies: flag semantics (section 3.1) and chains (section 3.2).

A policy answers one question for the elevator: *may this pending request be
dispatched right now?*  All policies see every issue and completion so they
can maintain whatever bookkeeping their semantics need.  A policy decides
only flag order and dependency order; overlap with other requests is the
driver's business, decided by its per-sector write FIFO (overlapping writes
reach the media in issue order, and a conflict-checked read waits for the
older writes it overlaps).

Flag semantics compared by the paper (figure 1):

* ``FULL`` -- a flagged request is a full barrier: it waits for everything
  issued before it, and nothing issued after it may pass it.
* ``BACK`` -- requests issued after a flagged request may not be scheduled
  before it *or anything issued before it*; the flagged request itself
  reorders freely with earlier non-flagged requests.
* ``PART`` -- requests issued after a flagged request may not be scheduled
  before *it*; everything else reorders freely.
* ``IGNORE`` -- the flag is ignored (no metadata protection; baseline).

``-NR`` (any semantics): non-conflicting reads bypass writes that are waiting
because of ordering restrictions.  A read conflicts if it overlaps an
incomplete earlier write; the driver decides ``-NR`` reads from its write
FIFO and never asks the policy about them.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque

from repro.driver.request import DiskRequest


class FlagSemantics(enum.Enum):
    """The meaning of the one-bit ordering flag."""

    FULL = "Full"
    BACK = "Back"
    PART = "Part"
    IGNORE = "Ignore"


class OrderingPolicy:
    """Interface the driver consults before dispatching.

    Contract: a policy's dispatchability answers may change **only** inside
    :meth:`on_issue` and :meth:`on_complete` (the driver relies on this to
    keep an incremental eligibility index instead of rescanning the whole
    queue per dispatch), and issuing a request never makes an already
    dispatchable *write* undispatchable.  ``may_dispatch`` must be free of
    observable side effects -- the driver may call it zero, one, or many
    times per request.

    ``eligibility`` tells the driver how blocked requests wake up; it has
    no default, and the driver rejects any value but these three:

    * ``"none"`` -- ``may_dispatch`` is constant ``True``; nothing is ever
      policy-held.
    * ``"monotone"`` -- blocked-ness is monotone in issue id: if a request
      is policy-held, every later-issued request is too (the flag
      semantics).  The driver keeps held requests in a min-id heap and pops
      from the front after each completion.
    * ``"deps"`` -- a request is held exactly while a dependency named by
      :meth:`blocking_deps` is incomplete (scheduler chains).  The driver
      watches one incomplete dependency at a time.

    ``conflict_checked_reads`` marks policies whose *read* admission is
    exactly "no overlap with an incomplete earlier write" (the ``-NR``
    rule and chains' natural read bypass).  The driver decides those reads
    itself from its write FIFO and wakes a held read from the completion
    of the specific write blocking it.  ``may_dispatch`` is never asked
    about a read of such a policy, so its answer for one is unspecified.
    """

    name = "base"
    conflict_checked_reads = False

    def on_issue(self, request: DiskRequest) -> None:
        """A request entered the driver queue."""

    def on_complete(self, request: DiskRequest) -> None:
        """A request finished at the drive."""

    def may_dispatch(self, request: DiskRequest) -> bool:
        """May *request* be sent to the drive now?"""
        raise NotImplementedError

    def blocking_deps(self, request: DiskRequest) -> list[int]:
        """Incomplete request ids *request* waits on (``"deps"`` policies)."""
        return []


class FlagPolicy(OrderingPolicy):
    """Scheduler-enforced ordering via the one-bit flag.

    Eligibility is monotone in issue order for every flag meaning: a
    request is blocked exactly when some older flagged/incomplete work
    remains, a condition that only grows with the issue id.  (With
    ``read_bypass`` the reads drop out of that ordering: they are
    ``conflict_checked_reads``, so the driver never asks the policy about
    them and holds back only those overlapping an older incomplete
    write.)  The driver uses this to keep
    held-back queues -- which reach thousands of requests under the remove
    benchmarks -- out of the per-dispatch scan entirely.
    """

    def __init__(self, semantics: FlagSemantics,
                 read_bypass: bool = False) -> None:
        self.semantics = semantics
        self.read_bypass = read_bypass
        if semantics is FlagSemantics.IGNORE:
            # IGNORE admits everything unconditionally (even conflicting
            # reads -- the driver's FIFO still serializes overlapping writes)
            self.eligibility = "none"
            self.conflict_checked_reads = False
        else:
            self.eligibility = "monotone"
            self.conflict_checked_reads = read_bypass
        self.name = semantics.value + ("-NR" if read_bypass else "")
        # ids of incomplete requests (issued, not yet completed)
        self._incomplete: set[int] = set()
        self._min_incomplete_heap: list[int] = []
        # ids of incomplete *flagged* requests
        self._flagged_incomplete: set[int] = set()
        self._min_flagged_heap: list[int] = []
        # BACK: flagged ids not yet retired (retired once everything issued
        # at-or-before them has completed); kept in issue order
        self._barriers: deque[int] = deque()

    # -- bookkeeping ------------------------------------------------------
    def on_issue(self, request: DiskRequest) -> None:
        self._incomplete.add(request.id)
        heapq.heappush(self._min_incomplete_heap, request.id)
        if request.flag:
            self._flagged_incomplete.add(request.id)
            heapq.heappush(self._min_flagged_heap, request.id)
            self._barriers.append(request.id)

    def on_complete(self, request: DiskRequest) -> None:
        self._incomplete.discard(request.id)
        self._flagged_incomplete.discard(request.id)
        self._retire_barriers()

    def _min_incomplete(self) -> int | None:
        heap = self._min_incomplete_heap
        while heap and heap[0] not in self._incomplete:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def _min_flagged_incomplete(self) -> int | None:
        heap = self._min_flagged_heap
        while heap and heap[0] not in self._flagged_incomplete:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def _retire_barriers(self) -> None:
        floor = self._min_incomplete()
        while self._barriers and (floor is None or self._barriers[0] < floor):
            self._barriers.popleft()

    # -- the decision -------------------------------------------------------
    def may_dispatch(self, request: DiskRequest) -> bool:
        if self.semantics is FlagSemantics.IGNORE:
            return True
        if self.semantics is FlagSemantics.PART:
            floor = self._min_flagged_incomplete()
            return floor is None or request.id <= floor

        if self.semantics is FlagSemantics.BACK:
            self._retire_barriers()
            return not self._barriers or request.id <= self._barriers[0]

        # FULL: may not pass any earlier incomplete flagged request; and a
        # flagged request waits for *everything* issued before it.
        floor = self._min_flagged_incomplete()
        if floor is not None and request.id > floor:
            return False
        if request.flag:
            oldest = self._min_incomplete()
            if oldest is not None and oldest < request.id:
                return False
        return True


class ChainsPolicy(OrderingPolicy):
    """Scheduler chains: per-request dependency lists.

    A request is dispatchable once every request it names has completed.
    Reads carry no dependencies, so they bypass ordering queues naturally
    (the paper notes ``-NR`` "holds no meaning with scheduler chains"),
    subject only to the driver's data-conflict check.
    """

    name = "Chains"
    eligibility = "deps"
    conflict_checked_reads = True

    def __init__(self) -> None:
        self._incomplete: set[int] = set()

    def on_issue(self, request: DiskRequest) -> None:
        bad = [dep for dep in request.depends_on if dep >= request.id]
        if bad:
            raise ValueError(
                f"request #{request.id} depends on not-yet-issued ids {bad}; "
                f"chains may only reference previously issued requests")
        self._incomplete.add(request.id)

    def on_complete(self, request: DiskRequest) -> None:
        self._incomplete.discard(request.id)

    def may_dispatch(self, request: DiskRequest) -> bool:
        return all(dep not in self._incomplete for dep in request.depends_on)

    def blocking_deps(self, request: DiskRequest) -> list[int]:
        """The still-incomplete dependencies, oldest first."""
        return sorted(dep for dep in request.depends_on
                      if dep in self._incomplete)
