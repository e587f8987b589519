"""Findings: what a crash-exploration sweep observed, aggregated.

Every verified crash point yields one :class:`CrashFinding` (picklable, so
pool workers can ship them back); :class:`ExplorationReport` aggregates a
sweep and renders the human-readable summary the CLI prints.  A finding
carries everything needed to reproduce it by hand: the scheme, workload,
seed and the exact simulated crash instant (see docs/crash-exploration.md).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.integrity.invariants import Severity, Violation, invariant_by_key


@dataclass(frozen=True)
class CrashFinding:
    """The outcome of fsck + invariant checking at one crash point."""

    index: int
    crash_time: float
    label: str
    errors: int
    warnings: int
    violations: tuple[Violation, ...]
    #: violations the scheme's declaration does not permit
    unexpected: tuple[Violation, ...]

    @property
    def corrupted(self) -> bool:
        return any(v.severity is Severity.CORRUPTION for v in self.violations)


@dataclass
class ExplorationReport:
    """One sweep: scheme x workload x seed over every enumerated point."""

    scheme: str
    workload: str
    seed: int
    guarantees: object
    findings: list[CrashFinding] = field(default_factory=list)
    #: recording metadata for reproduction
    quiesce_time: float = 0.0
    write_windows: int = 0
    #: fault plan the sweep ran under (None = the perfect disk)
    fault_profile: str | None = None
    fault_seed: int = 0
    #: how crash images were obtained: "synthesize" (from the media
    #: write-log) or "replay" (full prefix re-simulation per point)
    mode: str = "replay"
    #: size of the *full* enumeration before any --max-points budget;
    #: ``points < enumerated_points`` means the sweep was sampled
    enumerated_points: int = 0
    #: the budget in force (None = unlimited)
    max_points: int | None = None
    #: post-recording simulation replays performed (0 under synthesis)
    replays: int = 0
    #: verification pool size
    jobs: int = 1
    #: wall-clock split: the single recording run vs point verification
    record_wall_seconds: float = 0.0
    verify_wall_seconds: float = 0.0
    #: media write-log payload bytes held during the sweep (0 on replay)
    log_bytes: int = 0
    #: engine events processed by the recording run
    sim_events: int = 0
    #: online ordering monitor state: "off", "online", or "unsupported"
    #: (requested, but the scheme's crash state is not media-resident)
    monitor: str = "off"
    #: write windows the monitor observed during the recording run
    monitor_windows: int = 0
    #: OrderingViolation tuple raised at commit time
    monitor_violations: tuple = ()

    # -- aggregation -----------------------------------------------------
    @property
    def points(self) -> int:
        return len(self.findings)

    @property
    def sampled(self) -> bool:
        """True when the budget truncated the enumeration."""
        return 0 < self.points < self.enumerated_points

    @property
    def points_per_second(self) -> float:
        if self.verify_wall_seconds <= 0.0:
            return 0.0
        return self.points / self.verify_wall_seconds

    @property
    def wall_seconds(self) -> float:
        return self.record_wall_seconds + self.verify_wall_seconds

    @property
    def perf_extra(self) -> dict:
        """Benchmark-grid payload (lands in the cell's entry of the
        session's ``grid`` ledger line)."""
        return {
            "mode": self.mode,
            "points": self.points,
            "enumerated_points": self.enumerated_points,
            "replays": self.replays,
            "points_per_second": round(self.points_per_second, 2),
            "record_wall_seconds": round(self.record_wall_seconds, 4),
            "verify_wall_seconds": round(self.verify_wall_seconds, 4),
            "log_bytes": self.log_bytes,
        }

    @property
    def violation_counts(self) -> Counter:
        """Per-invariant totals across all crash points."""
        counts: Counter = Counter()
        for finding in self.findings:
            counts.update(v.key for v in finding.violations)
        return counts

    def points_violating(self, severity: Severity | None = None) -> list:
        """Findings with >=1 violation (optionally of one severity)."""
        return [finding for finding in self.findings
                if any(severity is None or v.severity is severity
                       for v in finding.violations)]

    @property
    def corruption_points(self) -> list[CrashFinding]:
        return self.points_violating(Severity.CORRUPTION)

    @property
    def unexpected_findings(self) -> list[CrashFinding]:
        return [finding for finding in self.findings if finding.unexpected]

    @property
    def clean(self) -> bool:
        """The scheme honoured its declaration at every crash point."""
        return not self.unexpected_findings

    @property
    def monitor_unexpected(self) -> list:
        """Online violations outside the scheme's declaration."""
        return [v for v in self.monitor_violations if not v.expected]

    @property
    def exit_status(self) -> int:
        """The CLI/CI contract: 0 only when BOTH verifiers came up clean.

        Any crash finding outside the scheme's declaration, or any
        unexpected online ordering violation, makes the sweep fail with
        status 1 -- a breach is never reported through text alone.
        """
        return 0 if self.clean and not self.monitor_unexpected else 1

    # -- rendering -------------------------------------------------------
    def summary(self) -> str:
        violating = self.points_violating()
        if self.sampled:
            cause = (f"sampled, --max-points {self.max_points}"
                     if self.max_points is not None
                     and self.points == self.max_points else "subset")
            coverage = (f"{self.points} of {self.enumerated_points} "
                        f"enumerated crash points ({cause})")
        elif self.enumerated_points:
            coverage = (f"{self.points} crash points "
                        f"(full enumeration)")
        else:
            coverage = f"{self.points} crash points"
        monitor = ""
        if self.monitor == "online":
            monitor = (f"; monitor: {len(self.monitor_violations)} online "
                       f"violations ({len(self.monitor_unexpected)} "
                       f"unexpected) over {self.monitor_windows} windows")
        elif self.monitor == "unsupported":
            monitor = "; monitor: unsupported (crash state off-media)"
        return (f"{self.scheme} x {self.workload} (seed {self.seed}, "
                f"{self.mode}): {coverage}, "
                f"{len(violating)} with invariant violations "
                f"({len(self.corruption_points)} corruption-class), "
                f"{len(self.unexpected_findings)} outside the scheme's "
                f"declaration{monitor}")

    def format(self, max_examples: int = 5) -> str:
        lines = [self.summary()]
        if self.wall_seconds > 0.0:
            lines.append(
                f"verification: {self.points_per_second:.0f} points/s "
                f"({self.record_wall_seconds:.2f}s record + "
                f"{self.verify_wall_seconds:.2f}s verify, "
                f"{self.replays} replays, jobs={self.jobs})")
        lines.append("")
        counts = self.violation_counts
        if counts:
            lines.append("violations by invariant:")
            for key, count in counts.most_common():
                invariant = invariant_by_key(key)
                lines.append(f"  {key:16s} {invariant.severity.value:10s} "
                             f"x{count}")
        else:
            lines.append("no invariant violations at any crash point")
        shown = 0
        for finding in self.findings:
            if not finding.violations or shown >= max_examples:
                continue
            shown += 1
            lines.append("")
            flag = " [UNEXPECTED]" if finding.unexpected else ""
            lines.append(f"crash point #{finding.index} "
                         f"t={finding.crash_time:.6f} ({finding.label})"
                         f"{flag}:")
            for violation in finding.violations[:4]:
                lines.append(f"    {violation.severity.value}: "
                             f"{violation.message}")
            fault = ("" if self.fault_profile is None
                     else f" --fault-profile {self.fault_profile} "
                          f"--fault-seed {self.fault_seed}")
            lines.append(f"    reproduce: --scheme {self.scheme} "
                         f"--workload {self.workload} --seed {self.seed}"
                         f"{fault} --point {finding.index}")
        if self.monitor == "online" and self.monitor_violations:
            lines.append("")
            lines.append(f"online ordering violations "
                         f"({len(self.monitor_violations)}, "
                         f"{len(self.monitor_unexpected)} unexpected):")
            for violation in self.monitor_violations[:max_examples]:
                lines.append(f"    {violation.format()}")
        if self.exit_status == 0:
            verdict = ("PASS: every crash state within the scheme's "
                       "declaration")
        elif self.clean:
            verdict = ("FAIL: online ordering violations outside the "
                       "scheme's declaration")
        else:
            verdict = "FAIL: crash states outside the scheme's declaration"
        lines += ["", verdict]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready representation (for the CLI's --json mode)."""
        return {
            "scheme": self.scheme,
            "workload": self.workload,
            "seed": self.seed,
            "mode": self.mode,
            "points": self.points,
            "enumerated_points": self.enumerated_points,
            "max_points": self.max_points,
            "sampled": self.sampled,
            "replays": self.replays,
            "jobs": self.jobs,
            "record_wall_seconds": self.record_wall_seconds,
            "verify_wall_seconds": self.verify_wall_seconds,
            "points_per_second": self.points_per_second,
            "log_bytes": self.log_bytes,
            "write_windows": self.write_windows,
            "quiesce_time": self.quiesce_time,
            "violation_counts": dict(self.violation_counts),
            "clean": self.clean,
            "exit_status": self.exit_status,
            "monitor": self.monitor,
            "monitor_windows": self.monitor_windows,
            "monitor_violations": [
                {"rule": v.rule, "message": v.message, "when": v.when,
                 "lbn": v.lbn, "nsectors": v.nsectors,
                 "expected": v.expected}
                for v in self.monitor_violations],
            "findings": [
                {
                    "index": f.index,
                    "crash_time": f.crash_time,
                    "label": f.label,
                    "errors": f.errors,
                    "warnings": f.warnings,
                    "violations": [
                        {"key": v.key, "severity": v.severity.value,
                         "message": v.message} for v in f.violations],
                    "unexpected": len(f.unexpected),
                }
                for f in self.findings if f.violations
            ],
        }
