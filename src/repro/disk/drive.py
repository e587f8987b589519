"""The drive: one-request-at-a-time mechanical service.

Command queueing at the disk is deliberately *not* modelled ("Command
queueing at the disk is not utilized", section 2): the device driver owns all
scheduling and hands the drive one (possibly concatenated) request at a time.

:meth:`Disk.service` is a simulated-process subroutine: the device driver
calls it with ``yield from`` and regains control when the media operation is
done.  Writes become persistent in the :class:`SectorStore` at transfer
completion; a crash mid-transfer applies the sector prefix that had already
passed under the head (see ``in_flight`` and ``repro.integrity.crash``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.faults import Fault, FaultInjector, FaultKind, SenseData
from repro.sim.engine import Engine
from repro.disk.cache import PrefetchCache
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskParameters
from repro.disk.storage import SectorStore


@dataclass
class InFlightWrite:
    """Descriptor of the write currently being transferred to media."""

    lbn: int
    data: bytes
    transfer_start: float
    sector_period: float

    def sectors_applied_by(self, when: float, sector_size: int) -> int:
        """How many sectors had fully reached the media by time *when*."""
        if when <= self.transfer_start:
            return 0
        elapsed = when - self.transfer_start
        return min(int(elapsed / self.sector_period), len(self.data) // sector_size)


class ServiceTimeStats:
    """Streaming service-time aggregates with bounded memory.

    The old per-I/O ``list`` grew one float per operation forever; long
    runs carried megabytes of dead samples.  This keeps count/sum/min/max
    as scalars and, when a reservoir limit is set (observability on), the
    most recent samples in a bounded deque for percentile-style digging.
    ``append``/``__len__`` match the old list surface.
    """

    __slots__ = ("count", "total", "min", "max", "_reservoir")

    def __init__(self, reservoir_limit: int = 0) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir = deque(maxlen=reservoir_limit) if reservoir_limit else None

    def append(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._reservoir is not None:
            self._reservoir.append(value)

    def __len__(self) -> int:
        return self.count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def samples(self) -> list:
        """Recent samples (empty unless a reservoir was enabled)."""
        return list(self._reservoir or ())


@dataclass
class DiskStats:
    """Aggregate drive-side instrumentation.

    ``reads``/``writes`` count operations that *completed successfully*;
    ``reads_started``/``writes_started`` count service attempts, so an
    operation cut short by a crash or failed by an injected fault is never
    reported as done.  Faulted attempts land in ``read_faults``/
    ``write_faults``; the difference (started - completed - faulted) is the
    crash-aborted remainder, exposed as ``aborted_reads``/``aborted_writes``.
    """

    reads: int = 0
    writes: int = 0
    reads_started: int = 0
    writes_started: int = 0
    read_faults: int = 0
    write_faults: int = 0
    cache_hit_reads: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    busy_time: float = 0.0
    seek_time: float = 0.0
    rotation_time: float = 0.0
    transfer_time: float = 0.0
    service_times: ServiceTimeStats = field(default_factory=ServiceTimeStats)

    @property
    def aborted_reads(self) -> int:
        return self.reads_started - self.reads - self.read_faults

    @property
    def aborted_writes(self) -> int:
        return self.writes_started - self.writes - self.write_faults


class Disk:
    """An HP C2447-class drive attached to the simulation engine."""

    def __init__(self, engine: Engine,
                 geometry: Optional[DiskGeometry] = None,
                 params: Optional[DiskParameters] = None,
                 cache_segments: int = 2,
                 prefetch_sectors: int = 64) -> None:
        self.engine = engine
        self.geometry = geometry or DiskGeometry()
        self.params = params or DiskParameters()
        self.storage = SectorStore(self.geometry)
        self.cache = PrefetchCache(cache_segments, prefetch_sectors,
                                   self.geometry.total_sectors)
        self.stats = DiskStats()
        obs = engine.obs
        self._obs = obs
        if obs is not None:
            registry = obs.registry
            self._m_service = registry.histogram("disk.service_time")
            self._m_seek = registry.counter("disk.seek_time")
            self._m_rotation = registry.counter("disk.rotation_time")
            self._m_transfer = registry.counter("disk.transfer_time")
            self._m_cache_hits = registry.counter("disk.cache_hit_reads")
            # a reservoir only when someone is watching: bounded memory, and
            # fault-free untraced runs keep the zero-allocation scalar path
            self.stats.service_times = ServiceTimeStats(reservoir_limit=512)
        else:
            self._m_service = None
        # created lazily on the first injected fault so fault-free traced
        # runs keep identical metric snapshots
        self._m_faults = None
        self._current_cylinder = 0
        #: set to True to make service() free (image population, not benchmarks)
        self.instant = False
        #: populated while a write transfer is on the media (crash injection)
        self.in_flight: Optional[InFlightWrite] = None
        #: optional observer called with each InFlightWrite as its transfer
        #: begins (the crash-exploration recorder enumerates boundaries here)
        self.on_transfer_start = None
        #: optional observer called as each write's media operation *ends*:
        #: ``on_write_commit(lbn, data, transfer_start, sector_period, end,
        #: durable)`` where *end* is the simulated completion instant and
        #: *durable* the sector-prefix length that persisted (the full count
        #: for a successful write, the torn/medium prefix for a faulted one,
        #: zero for a transient).  The media write-log recorder
        #: (``repro.integrity.medialog``) synthesizes crash images from this.
        self.on_write_commit = None
        #: attach a repro.faults.FaultInjector to make the media unreliable
        self.faults: Optional[FaultInjector] = None
        #: SCSI-style sense for the last service(); None means it succeeded
        self.sense: Optional[SenseData] = None

    # ------------------------------------------------------------------
    def service(self, lbn: int, nsectors: int, is_write: bool,
                data: Optional[bytes] = None) -> Generator:
        """Perform one media operation; returns the service time in seconds.

        For writes, *data* must be ``nsectors * sector_size`` bytes and is
        applied to the sector store at transfer completion.
        """
        if is_write:
            if data is None:
                raise ValueError("write without data")
            if len(data) != nsectors * self.geometry.sector_size:
                raise ValueError(
                    f"write data is {len(data)} bytes; expected "
                    f"{nsectors * self.geometry.sector_size}")
        if self.instant:
            self._finish(lbn, nsectors, is_write, data)
            return 0.0
        start = self.engine.now
        if is_write:
            self.stats.writes_started += 1
        else:
            self.stats.reads_started += 1
        if self.faults is not None:
            self.sense = None

        if not is_write and self.cache.lookup(lbn, nsectors):
            # on-board cache hit: controller overhead + bus transfer only,
            # and never a media fault -- the platters are not touched
            service = (self.params.controller_overhead
                       + self.params.bus_time(self.geometry, nsectors))
            yield self.engine.timeout(service)
            self.stats.reads += 1
            self.stats.sectors_read += nsectors
            self.stats.cache_hit_reads += 1
            self._account(start, 0.0, 0.0, 0.0)
            if self._obs is not None:
                self._m_cache_hits.inc()
                self._m_service.observe(self.engine.now - start)
                self._obs.tracer.record(
                    "disk.cache_hit", "disk", start, self.engine.now, "drive",
                    args={"lbn": lbn, "nsectors": nsectors})
            return self.engine.now - start

        if self.faults is not None:
            fault = self.faults.draw(lbn, nsectors, is_write)
            if fault is not None:
                result = yield from self._service_faulted(
                    fault, lbn, nsectors, is_write, data, start)
                return result

        cylinder, _head, sector = self.geometry.decompose(lbn)
        seek = self.params.seek_time(self._current_cylinder, cylinder)
        arrival = start + self.params.controller_overhead + seek
        rotation = self.params.rotational_delay(self.geometry, arrival, sector)
        transfer = self.params.transfer_time(self.geometry, nsectors)

        if is_write:
            yield self.engine.timeout(
                self.params.controller_overhead + seek + rotation)
            self.in_flight = InFlightWrite(
                lbn=lbn, data=data, transfer_start=self.engine.now,
                sector_period=self.params.sector_period(self.geometry))
            if self.on_transfer_start is not None:
                self.on_transfer_start(self.in_flight)
            yield self.engine.timeout(transfer)
            window = self.in_flight
            self.in_flight = None
            if self.on_write_commit is not None:
                self.on_write_commit(lbn, data, window.transfer_start,
                                     window.sector_period, self.engine.now,
                                     nsectors)
        else:
            yield self.engine.timeout(
                self.params.controller_overhead + seek + rotation + transfer)

        self._finish(lbn, nsectors, is_write, data)
        if is_write:
            self.stats.writes += 1
            self.stats.sectors_written += nsectors
        else:
            self.stats.reads += 1
            self.stats.sectors_read += nsectors
        self._current_cylinder = self.geometry.cylinder_of(lbn + nsectors - 1)
        self._account(start, seek, rotation, transfer)
        if self._obs is not None:
            self._record_service(start, seek, rotation, transfer,
                                 lbn, nsectors, is_write)
        return self.engine.now - start

    # ------------------------------------------------------------------
    def _service_faulted(self, fault: Fault, lbn: int, nsectors: int,
                         is_write: bool, data: Optional[bytes],
                         start: float) -> Generator:
        """Serve one media operation that the injector has doomed.

        The mechanical time really passes (a failing operation still seeks,
        rotates, and transfers up to the failure point), torn/medium writes
        persist their sector prefix through :meth:`SectorStore.write_partial`,
        and the drive holds :class:`SenseData` for the driver to inspect.
        Nothing is inserted into the prefetch cache and completed-operation
        stats are not credited.
        """
        kind = fault.kind
        applied = 0
        if kind is FaultKind.TIMEOUT:
            # the controller gives up before the mechanics do anything
            seek = rotation = transfer = 0.0
            yield self.engine.timeout(self.faults.plan.timeout_penalty)
        else:
            cylinder, _head, sector = self.geometry.decompose(lbn)
            seek = self.params.seek_time(self._current_cylinder, cylinder)
            arrival = start + self.params.controller_overhead + seek
            rotation = self.params.rotational_delay(self.geometry, arrival,
                                                    sector)
            if is_write:
                if kind is FaultKind.TRANSIENT:
                    # full pass under the head, write current disabled:
                    # nothing reaches the platters
                    transfer = self.params.transfer_time(self.geometry,
                                                         nsectors)
                else:
                    # torn write / medium error: the transfer stops at the
                    # failing sector, leaving a persistent prefix
                    applied = min(fault.sectors_applied, nsectors)
                    transfer = applied * self.params.sector_period(
                        self.geometry)
                yield self.engine.timeout(
                    self.params.controller_overhead + seek + rotation)
                self.in_flight = InFlightWrite(
                    lbn=lbn, data=data, transfer_start=self.engine.now,
                    sector_period=self.params.sector_period(self.geometry))
                if self.on_transfer_start is not None:
                    self.on_transfer_start(self.in_flight)
                if transfer:
                    yield self.engine.timeout(transfer)
                window = self.in_flight
                self.in_flight = None
                if applied:
                    self.storage.write_partial(lbn, data, applied)
                if self.on_write_commit is not None:
                    self.on_write_commit(lbn, data, window.transfer_start,
                                         window.sector_period,
                                         self.engine.now, applied)
                self.cache.invalidate(lbn, nsectors)
            else:
                transfer = self.params.transfer_time(self.geometry, nsectors)
                yield self.engine.timeout(
                    self.params.controller_overhead + seek + rotation
                    + transfer)
            self._current_cylinder = self.geometry.cylinder_of(
                lbn + nsectors - 1)

        if is_write:
            self.stats.write_faults += 1
        else:
            self.stats.read_faults += 1
        self.sense = SenseData(code=kind.value, bad_lbn=fault.bad_lbn,
                               sectors_applied=applied)
        self.faults.injected += 1
        self.faults.log(self.engine.now, "inject",
                        f"{kind.value} {'write' if is_write else 'read'} "
                        f"lbn={lbn} nsectors={nsectors} applied={applied}")
        self._account(start, seek, rotation, transfer)
        if self._obs is not None:
            if self._m_faults is None:
                self._m_faults = self._obs.registry.counter("disk.faults")
            self._m_faults.inc()
            self._obs.tracer.record(
                "disk.fault", "disk", start, self.engine.now, "drive",
                args={"lbn": lbn, "nsectors": nsectors, "kind": kind.value})
        return self.engine.now - start

    def reassign_block(self, lbn: int) -> bool:
        """SCSI REASSIGN BLOCKS for *lbn*; False when spares are exhausted."""
        if self.faults is None:
            return False
        ok = self.faults.reassign(lbn)
        if ok:
            self.faults.log(self.engine.now, "remap", f"lbn={lbn}")
        return ok

    # ------------------------------------------------------------------
    def _record_service(self, start: float, seek: float, rotation: float,
                        transfer: float, lbn: int, nsectors: int,
                        is_write: bool) -> None:
        """Tracing-on accounting: the mechanical phase breakdown as spans.

        The drive serves one request at a time, so these intervals nest
        properly on the dedicated ``drive`` track.  Built entirely from
        timestamps already computed by :meth:`service`.
        """
        obs = self._obs
        end = self.engine.now
        self._m_service.observe(end - start)
        self._m_seek.inc(seek)
        self._m_rotation.inc(rotation)
        self._m_transfer.inc(transfer)
        name = "disk.write" if is_write else "disk.read"
        outer = obs.tracer.record(
            name, "disk", start, end, "drive",
            args={"lbn": lbn, "nsectors": nsectors})
        record = obs.tracer.record
        at = start + self.params.controller_overhead
        if seek:
            record("seek", "disk", at, at + seek, "drive", parent=outer.id)
        at += seek
        if rotation:
            record("rotate", "disk", at, at + rotation, "drive",
                   parent=outer.id)
        at += rotation
        if transfer:
            record("transfer", "disk", at, at + transfer, "drive",
                   parent=outer.id)

    def _finish(self, lbn: int, nsectors: int, is_write: bool,
                data: Optional[bytes]) -> None:
        if is_write:
            self.storage.write(lbn, data)
            self.cache.invalidate(lbn, nsectors)
        else:
            self.cache.insert_after_read(lbn, nsectors)

    def _account(self, start: float, seek: float, rotation: float,
                 transfer: float) -> None:
        service = self.engine.now - start
        self.stats.busy_time += service
        self.stats.seek_time += seek
        self.stats.rotation_time += rotation
        self.stats.transfer_time += transfer
        self.stats.service_times.append(service)

    def read_now(self, lbn: int, nsectors: int) -> bytes:
        """Zero-time read of persistent bytes (setup/inspection paths only)."""
        return self.storage.read(lbn, nsectors)

    def write_now(self, lbn: int, data: bytes) -> None:
        """Zero-time persistent write (setup/inspection paths only)."""
        self.storage.write(lbn, data)
        self.cache.invalidate(lbn, len(data) // self.geometry.sector_size)
