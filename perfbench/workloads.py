"""The benchmark's three workloads, one cell per ordering scheme.

Every cell has a set-up phase (build the machine, mkfs, populate) and a
measured phase, and reports a behaviour fingerprint, the simulated time
the paper's tables would show, and the modelled layer counters.

* ``copy4`` -- table 1: four users each copy a separate synthetic tree
  from a cold cache.  The trees (4 x ~2.1 MB of source, plus the copies)
  overflow the 6 MB modelled buffer cache, so the whole data path works.
* ``remove4`` -- table 2: four users each delete a freshly built tree from
  a warm cache.  Metadata only: ordering-scheme dependency work and the
  driver's held-back queues.
* ``crashsweep`` -- the crash explorer's synthesized sweep of the ``churn``
  workload with the online monitor and repair verification: image
  synthesis, fsck and repair, with almost no simulation.

All three are closed loop: each simulated user issues its next operation
only when the previous one completed, in one host process (no pool).
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.harness import metrics, runner
from repro.integrity import explorer
from repro.ordering.registry import REGISTRY
from repro.workloads import copybench, trees

USERS = 4
#: the tables' default scale: trees and cache at 0.15 of the paper's
SCALE = 0.15
CACHE_BYTES = int(runner.FULL_CACHE_BYTES * SCALE)
MAX_EVENTS = 300_000_000

#: the six standard schemes, in table order
SCHEMES = [info for info in REGISTRY.values() if info.standard]

#: crash sweep: explorer workload, its operation count and the crash-point
#: budget per exploration.  120 operations (the explorer's default is 40)
#: make the settled run long enough that the simulated time of one sweep
#: varies little from seed to seed.
CRASH_WORKLOAD = "churn"
CRASH_OPS = 120
CRASH_MAX_POINTS = 30


class CellError(Exception):
    """A cell's output failed a correctness check."""


def tree_for(seed: int, user: int) -> trees.TreeSpec:
    """User *user*'s tree: every user gets a separate tree of the same size."""
    return dataclasses.replace(trees.TreeSpec().scaled(SCALE),
                               seed=seed * USERS + user)


def counters(machine) -> dict:
    """Additive modelled counters, read from the machine's public state."""
    stats = machine.disk.stats
    manager = getattr(machine.scheme, "manager", None)
    return {
        "sim.events": machine.engine.events_processed,
        "cache.hits": machine.cache.hits,
        "cache.misses": machine.cache.misses,
        "cache.forced_flushes": machine.cache.flushes_forced,
        "syncer.workitems_run": machine.syncer.workitems_run,
        "driver.requests": machine.driver.requests_issued,
        "disk.busy_s": stats.busy_time,
        "disk.sectors_written": stats.sectors_written,
        "disk.cache_hit_reads": stats.cache_hit_reads,
        "ordering.softupdates.rollbacks":
            manager.rollbacks if manager is not None else 0,
        "ordering.softupdates.deps_created":
            manager.deps_created if manager is not None else 0,
    }


def request_sums(machine, after_id: int) -> dict:
    """Driver-trace sums over the requests issued after *after_id*."""
    window = [r for r in machine.driver.trace if r.id > after_id]
    reads = sum(1 for r in window if not r.is_write)
    return {
        "driver.reads": reads,
        "driver.writes": len(window) - reads,
        "queue_wait_sum": sum(r.queue_delay for r in window),
        "access_sum": sum(r.access_time for r in window),
        "window_requests": len(window),
    }


class Cell:
    """One scheme's run of one workload (or one part of it)."""

    #: cells per scheme; part *k* of seed *s* runs on input seed
    #: ``s * parts + k``
    parts = 1

    def __init__(self, scheme, seed: int, part: int = 0) -> None:
        self.scheme = scheme
        self.seed = seed * self.parts + part
        self.name = scheme.slug if self.parts == 1 else f"{scheme.slug}.{part}"
        self.machine = None
        self.mark = 0
        self.before: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def begin(self) -> None:
        """Snapshot counters between set-up and the measured phase."""
        self.mark = self.machine.driver.last_issued_id
        self.before = counters(self.machine)

    def layer_counters(self) -> dict:
        after = counters(self.machine)
        out = {key: after[key] - self.before[key] for key in after}
        out.update(request_sums(self.machine, self.mark))
        return out

    def provenance(self) -> tuple[str, str]:
        return self.machine.engine.kernel_name, self.machine.disk.storage.name

    def unexpected_points(self) -> int:
        return 0


class _TreeCell(Cell):
    """Shared shape of the copy and remove cells."""

    def build_machine(self):
        return runner.build_machine(runner.standard_scheme_config(
            self.scheme.display_name, cache_bytes=CACHE_BYTES))

    def run(self) -> None:
        machine = self.machine
        self.users = [machine.spawn(self.user(machine, user),
                                    name=f"user{user}")
                      for user in range(USERS)]
        machine.run(*self.users, max_events=MAX_EVENTS)
        machine.sync_and_settle()

    def outcome(self) -> tuple[float, dict, int]:
        """(simulated seconds, fingerprint, work items) of the finished run."""
        result = metrics.collect(self.machine, self.users, self.mark)
        fingerprint = {
            "sim_events": result.sim_events,
            "disk_requests": result.disk_requests,
            "reads": result.reads,
            "writes": result.writes,
            "elapsed": repr(result.elapsed),
            "digest": self.machine.disk.storage.digest(),
        }
        return result.elapsed, fingerprint, 1


class CopyCell(_TreeCell):
    def user(self, machine, user: int):
        return copybench.copy_tree_user(machine, user)

    def setup(self) -> None:
        machine = self.machine = self.build_machine()

        def builder():
            # copybench.populate_sources, with a separate tree per user
            for user in range(USERS):
                yield from trees.build_tree(machine.fs, f"/src{user}",
                                            tree_for(self.seed, user))
            for user in range(USERS):
                yield from machine.fs.mkdir(f"/u{user}")

        machine.populate(builder())

    def verify(self) -> None:
        """Every copied file reads back byte-identical to its source."""
        fs = self.machine.fs

        def read_back():
            for user in range(USERS):
                _dirs, files = trees.tree_layout(tree_for(self.seed, user))
                for relative, size in files:
                    data = yield from fs.read_file(
                        f"/u{user}/tree/{relative}")
                    if data != trees.file_bytes(relative, size):
                        raise CellError(
                            f"user {user}: /{relative} differs after copy")

        self.machine.run_instantly(read_back(), name="verify")


class RemoveCell(_TreeCell):
    def user(self, machine, user: int):
        return copybench.remove_tree_user(machine, user)

    def setup(self) -> None:
        machine = self.machine = self.build_machine()

        def builder():
            for user in range(USERS):
                yield from machine.fs.mkdir(f"/u{user}")
                yield from trees.build_tree(machine.fs, f"/u{user}/tree",
                                            tree_for(self.seed, user))

        machine.populate(builder(), cold_cache=False)

    def verify(self) -> None:
        """Every user's home directory is empty after the remove."""
        fs = self.machine.fs

        def listing():
            names = []
            for user in range(USERS):
                names += (yield from fs.readdir(f"/u{user}"))
            return names

        left = self.machine.run_instantly(listing(), name="verify")
        if left:
            raise CellError(f"entries left after remove: {left[:5]}")


class CrashCell(Cell):
    """One explorer sweep; set-up is the exploration machine.

    Each scheme sweeps two churn seeds, so the seed-to-seed variation of
    the crash images averages over twelve sweeps, not six.
    """

    parts = 2

    def setup(self) -> None:
        self.machine = explorer.build_machine(self.scheme.slug)

    def run(self) -> None:
        prebuilt = [self.machine]
        original = explorer.build_machine

        def reuse(scheme_name, secrets=False, fault_profile=None,
                  fault_seed=0, kernel=None):
            # explore() builds its machine first; hand it the one built in
            # set-up, which is the same call with the same defaults
            if (scheme_name != self.scheme.slug or secrets or kernel
                    or fault_profile is not None or fault_seed
                    or not prebuilt):
                raise CellError("unexpected exploration machine request")
            return prebuilt.pop()

        explorer.build_machine = reuse
        try:
            self.report = explorer.explore(
                self.scheme.slug, CRASH_WORKLOAD, seed=self.seed,
                ops=CRASH_OPS, jobs=1,
                max_points=CRASH_MAX_POINTS, monitor=True,
                verify_repair=True, heartbeat=0, stall_timeout=0)
        finally:
            explorer.build_machine = original

    def outcome(self) -> tuple[float, dict, int]:
        report = self.report
        canonical = "\n".join(
            f"{f.index}|{f.crash_time!r}|{f.errors}|{f.warnings}|"
            f"{sorted(v.key for v in f.violations)}|"
            f"{sorted(v.key for v in f.unexpected)}"
            for f in report.findings)
        fingerprint = {
            "points": report.points,
            "enumerated": report.enumerated_points,
            "sim_events": report.sim_events,
            "quiesce_time": repr(report.quiesce_time),
            "monitor": report.monitor,
            "monitor_violations": len(report.monitor_violations),
            "exit_status": report.exit_status,
            "findings": hashlib.sha256(canonical.encode()).hexdigest()[:16],
        }
        return report.quiesce_time, fingerprint, report.points

    def unexpected_points(self) -> int:
        return len(self.report.unexpected_findings)

    def verify(self) -> None:
        report = self.report
        if report.monitor != "online":
            raise CellError(f"monitor {report.monitor!r}, expected online")
        if report.monitor_unexpected:
            raise CellError(f"{len(report.monitor_unexpected)} unexpected "
                            f"online ordering violations")
        if report.exit_status != 0:
            raise CellError(f"exit status {report.exit_status}")

    def layer_counters(self) -> dict:
        out = super().layer_counters()
        out["integrity.points"] = self.report.points
        out["integrity.unexpected"] = (len(self.report.unexpected_findings)
                                       + len(self.report.monitor_unexpected))
        return out


#: workload name -> cell class (why each was chosen: module docstring)
WORKLOADS = {"copy4": CopyCell, "remove4": RemoveCell, "crashsweep": CrashCell}


def cells(workload: str, seed: int):
    """The workload's cells, built one at a time so only one is alive."""
    cls = WORKLOADS[workload]
    for scheme in SCHEMES:
        for part in range(cls.parts):
            yield cls(scheme, seed, part)


def per_point(workload: str) -> bool:
    """Whether the workload's unit of work is a crash point (else a cell)."""
    return WORKLOADS[workload] is CrashCell


def max_work(workload: str) -> int:
    """Work charged to a cell that failed before reporting its size."""
    return CRASH_MAX_POINTS if per_point(workload) else 1
