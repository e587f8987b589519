"""Seeded fault-sweep harness: every scheme on an unreliable disk.

The acceptance bar for the fault-injection subsystem is *graceful
degradation*: with a seeded :class:`~repro.faults.FaultPlan` attached,
every ordering scheme must either recover to an fsck-clean image (the
driver's retry/remap machinery absorbed the faults) or surface a *typed*
degradation event (EIO to a syscall, a lost delayed write, a requeued
dependency batch, a wedged sync).  What is never acceptable is silent
corruption: an image that fails ``fsck`` with no degradation on record.

This runner sweeps a small matrix of (scheme x fault profile x seed)
cells.  Each cell builds the exploration testbed
(:func:`repro.integrity.explorer.build_machine`), runs the seeded churn
workload, settles, fscks the surviving image and classifies the outcome:

* ``clean``      -- fsck clean, no visible degradation (faults absorbed);
* ``recovered``  -- fsck clean after visible-but-handled degradation
  (requeues, redirties, failed ops that were reported to the caller);
* ``degraded``   -- fsck found damage, but every bit of it is accounted
  for by typed degradation events (lost writes, EIOs);
* ``SILENT-CORRUPTION`` -- fsck found damage with *no* typed degradation
  on record.  This is the bug class the sweep exists to catch, and the
  only verdict that makes the run exit nonzero.

Everything is deterministic in the seeds: the same invocation produces a
byte-identical ``results/fault_report.txt``.

CLI::

    python -m repro.harness faults --profiles transient,mixed --seeds 1,2
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, field

from repro.faults import MediaError, PROFILES
from repro.harness.parallel import run_grid
from repro.integrity.explorer import SCHEMES, build_machine, explore
from repro.integrity.fsck import fsck
from repro.integrity.monitor import OrderingMonitor, monitor_supported
from repro.obs.observatory import append_ledger
from repro.ordering.registry import standard_slugs
from repro.sim import ProcessCrashed, SimulationError
from repro.workloads.churn import churn_workload

#: the standard registry schemes -- the five paper configurations plus
#: journaling (nvram rides along via --schemes: it is a scheme too)
DEFAULT_SCHEMES = standard_slugs()
DEFAULT_PROFILES = ["transient", "defects", "mixed"]
DEFAULT_SEEDS = [1, 2, 3]
#: bounded attempts to settle a machine whose sync keeps hitting faults
SETTLE_ATTEMPTS = 5


@dataclass
class CellResult:
    """Outcome of one (scheme, profile, seed) cell."""

    scheme: str
    profile: str
    seed: int
    verdict: str = "clean"
    injected: int = 0
    retries: int = 0
    remaps: int = 0
    io_errors: int = 0
    lost_writes: int = 0
    fsck_errors: int = 0
    fsck_warnings: int = 0
    degradations: list[str] = field(default_factory=list)
    #: crash-point exploration riding along (``--explore N``): verified
    #: point count, verification mode, declaration breaches, or the
    #: reason exploration could not run for this cell
    crash_points: int = 0
    crash_mode: str = ""
    crash_unexpected: int = 0
    crash_note: str = ""
    #: online ordering monitor (``--monitor``): "", "online" or
    #: "unsupported", plus what it saw during the cell's run
    monitor_state: str = ""
    monitor_violations: int = 0
    monitor_unexpected: int = 0


def run_cell(scheme_name: str, profile: str, seed: int,
             operations: int, explore_points: int = 0,
             synthesize: bool = True, monitor: bool = False) -> CellResult:
    """Run one cell of the sweep and classify the survivor.

    ``explore_points > 0`` additionally sweeps that many crash points of
    the same (scheme, profile, seed) cell -- crash AND fault -- through
    :func:`repro.integrity.explorer.explore`, synthesizing images from
    the media write-log by default (``synthesize=False`` replays, the
    oracle).  Profiles with latent defects can abort the victim workload
    mid-recording; that is reported per cell, not raised.

    ``monitor=True`` attaches the online ordering-rule monitor for the
    whole cell: unexpected violations at commit time count as damage,
    classified exactly like fsck damage (accounted-for -> ``degraded``,
    unaccounted-for -> ``SILENT-CORRUPTION``).
    """
    machine = build_machine(scheme_name, fault_profile=profile,
                            fault_seed=seed)
    injector = machine.disk.faults
    result = CellResult(scheme=scheme_name, profile=profile, seed=seed)

    watcher = None
    if monitor:
        if monitor_supported(machine):
            result.monitor_state = "online"
            watcher = OrderingMonitor(machine.config.fs_geometry,
                                      machine.scheme.crash_guarantees)
            watcher.attach(machine.disk)
        else:
            result.monitor_state = "unsupported"

    victim = machine.spawn(
        churn_workload(machine, seed=seed, operations=operations),
        name="victim")
    try:
        machine.engine.run_until(victim)
    except ProcessCrashed as exc:
        if isinstance(exc.original, MediaError):
            # the syscall path surfaced EIO/nospare to the caller: a typed,
            # expected degradation (the workload stops, the image must
            # still audit consistently with what was reported)
            injector.log(machine.engine.now, "op_failed", str(exc.original))
        else:
            injector.log(machine.engine.now, "wedged", f"victim: {exc}")
    except MediaError as exc:
        injector.log(machine.engine.now, "op_failed", str(exc))
    except (RuntimeError, SimulationError) as exc:
        injector.log(machine.engine.now, "wedged", f"victim: {exc}")

    for _ in range(SETTLE_ATTEMPTS):
        try:
            machine.sync_and_settle()
            break
        except ProcessCrashed as exc:
            if isinstance(exc.original, MediaError):
                injector.log(machine.engine.now, "sync_write_failed",
                             str(exc.original))
            else:
                injector.log(machine.engine.now, "wedged", f"sync: {exc}")
                break
        except MediaError as exc:
            injector.log(machine.engine.now, "sync_write_failed", str(exc))
        except (RuntimeError, SimulationError) as exc:
            injector.log(machine.engine.now, "wedged", f"sync: {exc}")
            break
    else:
        injector.log(machine.engine.now, "wedged",
                     f"sync still failing after {SETTLE_ATTEMPTS} attempts")

    if watcher is not None:
        watcher.detach(machine.disk)
        result.monitor_violations = len(watcher.violations)
        result.monitor_unexpected = len(watcher.unexpected)

    report = fsck(machine.disk.storage, machine.config.fs_geometry)
    degradations = injector.degradations()

    result.injected = injector.injected
    result.retries = machine.driver.retries
    result.remaps = machine.driver.remaps
    result.io_errors = machine.driver.io_errors
    result.lost_writes = len(machine.cache.lost_writes)
    result.fsck_errors = len(report.errors)
    result.fsck_warnings = len(report.warnings)
    result.degradations = [
        f"t={event.time:.4f} {event.kind}: {event.detail}"
        for event in degradations]

    damaged = not report.clean or result.monitor_unexpected > 0
    if not damaged:
        result.verdict = "recovered" if degradations else "clean"
    elif degradations:
        result.verdict = "degraded"
    else:
        result.verdict = "SILENT-CORRUPTION"

    if explore_points > 0:
        try:
            sweep = explore(scheme_name, "churn", seed=seed,
                            ops=operations, jobs=1,
                            max_points=explore_points,
                            fault_profile=profile, fault_seed=seed,
                            synthesize=synthesize, monitor=monitor)
        except Exception as exc:
            # e.g. a latent-defect profile EIO-aborts the recorded victim
            result.crash_note = (f"exploration n/a: "
                                 f"{type(exc).__name__}: {exc}")
        else:
            result.crash_points = sweep.points
            result.crash_mode = sweep.mode
            result.crash_unexpected = (len(sweep.unexpected_findings)
                                       + len(sweep.monitor_unexpected))
    return result


def format_report(cells: list[CellResult], operations: int) -> str:
    """Render the sweep outcome as a deterministic text report."""
    lines = ["fault sweep report",
             "==================",
             f"workload: churn x {operations} operations per cell",
             f"cells: {len(cells)}",
             ""]
    explored = any(cell.crash_points or cell.crash_note for cell in cells)
    monitored = any(cell.monitor_state for cell in cells)
    header = (f"{'scheme':<14}{'profile':<11}{'seed':>5}{'inj':>6}"
              f"{'retry':>7}{'remap':>7}{'eio':>5}{'lost':>6}"
              f"{'fsck':>6}")
    if monitored:
        header += f"{'mon':>6}"
    if explored:
        header += f"{'pts':>6}{'unexp':>7}  mode       "
    header += "  verdict"
    lines.append(header)
    lines.append("-" * len(header))
    for cell in cells:
        row = (f"{cell.scheme:<14}{cell.profile:<11}{cell.seed:>5}"
               f"{cell.injected:>6}{cell.retries:>7}{cell.remaps:>7}"
               f"{cell.io_errors:>5}{cell.lost_writes:>6}"
               f"{cell.fsck_errors:>6}")
        if monitored:
            mon = (str(cell.monitor_violations)
                   if cell.monitor_state == "online" else "-")
            row += f"{mon:>6}"
        if explored:
            mode = cell.crash_mode or ("n/a" if cell.crash_note else "-")
            row += (f"{cell.crash_points:>6}{cell.crash_unexpected:>7}"
                    f"  {mode:<11}")
        row += f"  {cell.verdict}"
        lines.append(row)
    lines.append("")
    for cell in cells:
        if cell.crash_note:
            lines.append(f"[{cell.scheme}/{cell.profile}/seed={cell.seed}] "
                         f"{cell.crash_note}")
    if any(cell.crash_note for cell in cells):
        lines.append("")
    for cell in cells:
        if not cell.degradations:
            continue
        lines.append(f"[{cell.scheme}/{cell.profile}/seed={cell.seed}] "
                     f"{cell.verdict}:")
        for entry in cell.degradations:
            lines.append(f"  {entry}")
        lines.append("")
    bad = [cell for cell in cells if cell.verdict == "SILENT-CORRUPTION"]
    lines.append(f"silent corruption: {len(bad)}")
    if monitored:
        lines.append(f"online ordering violations outside declarations: "
                     f"{sum(cell.monitor_unexpected for cell in cells)}")
    if explored:
        lines.append(f"crash points outside declarations: "
                     f"{sum(cell.crash_unexpected for cell in cells)}")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness faults",
        description="seeded disk-fault sweep across ordering schemes")
    parser.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES),
                        help="comma-separated scheme names "
                             f"(from {sorted(SCHEMES)})")
    parser.add_argument("--profiles", default=",".join(DEFAULT_PROFILES),
                        help="comma-separated fault profiles "
                             f"(from {sorted(PROFILES)})")
    parser.add_argument("--seeds", default=",".join(
        str(seed) for seed in DEFAULT_SEEDS),
        help="comma-separated fault/workload seeds")
    parser.add_argument("--ops", type=int, default=40,
                        help="churn operations per cell (default 40)")
    parser.add_argument("--explore", type=int, default=0, metavar="N",
                        help="also sweep up to N crash points per cell "
                             "(crash AND fault; 0 = off)")
    parser.add_argument("--monitor", action="store_true",
                        help="attach the online ordering-rule monitor to "
                             "every cell (unexpected commit-time "
                             "violations count as damage)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="sweep cells in parallel over a fork pool "
                             "(default REPRO_JOBS, then the core count)")
    parser.add_argument("--heartbeat", type=float, default=None,
                        metavar="SECONDS",
                        help="progress line every SECONDS while cells are "
                             "in flight (default REPRO_HEARTBEAT; 0 = off)")
    parser.add_argument("--stall-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="abort, naming the stuck (scheme, profile, "
                             "seed) cell, once any cell is in flight this "
                             "long (default REPRO_STALL_TIMEOUT; 0 = off)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--synthesize", dest="synthesize",
                      action="store_true", default=True,
                      help="synthesize --explore crash images from the "
                           "media write-log (the default)")
    mode.add_argument("--replay", dest="synthesize", action="store_false",
                      help="replay each --explore crash point from "
                           "scratch (the verification oracle)")
    parser.add_argument("--out", default=os.path.join(
        "results", "fault_report.txt"),
        help="report path (default results/fault_report.txt)")
    args = parser.parse_args(argv)

    schemes = [name.strip() for name in args.schemes.split(",") if name.strip()]
    profiles = [name.strip() for name in args.profiles.split(",")
                if name.strip()]
    seeds = [int(seed) for seed in args.seeds.split(",") if seed.strip()]
    for name in schemes:
        if name not in SCHEMES:
            parser.error(f"unknown scheme {name!r}; choose from "
                         f"{sorted(SCHEMES)}")
    for name in profiles:
        if name not in PROFILES:
            parser.error(f"unknown profile {name!r}; choose from "
                         f"{sorted(PROFILES)}")

    # every (scheme, profile, seed) cell is independent -- fan them over
    # the same fork-pool grid machinery as the benchmark tables, which
    # buys the sweep heartbeats and stall detection for free.  Results
    # come back keyed in input order, so the printed lines and the report
    # are byte-identical to the old serial loop's.
    grid_cells = [
        ((scheme_name, profile, seed),
         functools.partial(run_cell, scheme_name, profile, seed, args.ops,
                           explore_points=args.explore,
                           synthesize=args.synthesize,
                           monitor=args.monitor))
        for scheme_name in schemes
        for profile in profiles
        for seed in seeds]
    start = time.perf_counter()
    results = run_grid("faults", grid_cells, jobs=args.jobs,
                       heartbeat=args.heartbeat, stall=args.stall_timeout)
    cells = list(results.values())
    for cell in cells:
        extra = ""
        if args.monitor and cell.monitor_state == "online":
            extra += (f" monitor={cell.monitor_violations}"
                      f"/{cell.monitor_unexpected}-unexpected")
        if args.explore:
            extra += (f" crash-explored={cell.crash_points} "
                      f"[{cell.crash_mode or 'n/a'}] "
                      f"unexpected={cell.crash_unexpected}")
        print(f"{cell.scheme}/{cell.profile}/seed={cell.seed}: "
              f"{cell.verdict} (injected={cell.injected} "
              f"retries={cell.retries} remaps={cell.remaps})"
              f"{extra}")

    report = format_report(cells, args.ops)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        handle.write(report)
    print(f"\nwrote {args.out}")

    verdicts: dict = {}
    for cell in cells:
        verdicts[cell.verdict] = verdicts.get(cell.verdict, 0) + 1
    append_ledger("faults", {
        "schemes": schemes,
        "profiles": profiles,
        "seeds": seeds,
        "ops": args.ops,
        "cells": len(cells),
        "verdicts": verdicts,
        "explore": args.explore,
        "monitor": bool(args.monitor),
        "wall_seconds": round(time.perf_counter() - start, 3),
    })

    failed = False
    for cell in cells:
        if cell.verdict == "SILENT-CORRUPTION":
            print(f"SILENT CORRUPTION: {cell.scheme}/{cell.profile}/"
                  f"seed={cell.seed}", file=sys.stderr)
            failed = True
        if cell.crash_unexpected:
            print(f"DECLARATION BREACH: {cell.scheme}/{cell.profile}/"
                  f"seed={cell.seed}: {cell.crash_unexpected} crash "
                  f"points outside the scheme's declaration",
                  file=sys.stderr)
            failed = True
        if cell.monitor_unexpected and not cell.degradations:
            print(f"ONLINE ORDERING BREACH: {cell.scheme}/{cell.profile}/"
                  f"seed={cell.seed}: {cell.monitor_unexpected} "
                  f"unexpected violations at commit time",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
