"""The automated performance-regression gate.

Every benchmark session appends one ``grid`` line to the run ledger
(:mod:`repro.obs.observatory`; the payload is
:func:`repro.harness.parallel.build_session_record`).
``python -m repro.harness regress`` reads those lines back: it takes the
freshest session as the candidate and compares its per-cell wall clock
against **robust per-cell statistics** over every earlier session.

Method (documented in ``docs/performance.md``):

* **Stratification.**  Only priors from the same stratum count as
  baseline: same host CPU count, benchmark scale, and job count.  A
  4-core run is never judged against a 1-core container's.  Cells match
  on grid name and cell key.
* **Robust center.**  The baseline is the *median* of the prior walls --
  one historic outlier session cannot move the gate -- and at least
  ``--min-runs`` priors are required before a cell is judged at all.
* **Tolerance band.**  A cell regresses when its wall exceeds
  ``median * (1 + tolerance)`` *and* the excess tops ``--abs-floor``
  seconds (host timers jitter; a 20 ms cell doubling is noise, a 20 s
  cell doubling is not).  Cells faster than ``median * (1 - tolerance)``
  are reported as improvements -- the gate works both ways.

Exit status: 1 when any cell regresses, 0 otherwise.  The escape hatch for
*intentional* trade-offs (a slower-but-correct fix): set
``REPRO_REGRESS_ALLOW=1`` -- the report is still written and the ledger
still records the regression, but the exit status is 0.

Every invocation writes ``results/regression_report.txt`` and appends a
``regress`` line to the run ledger.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.harness.report import format_table
from repro.obs.observatory import append_ledger, ledger_path, read_ledger

__all__ = ["CellVerdict", "DEFAULT_ABS_FLOOR", "DEFAULT_MIN_RUNS",
           "DEFAULT_TOLERANCE", "ALLOW_ENV", "compare_records",
           "format_regression_report", "gate", "main", "stratum_of"]

#: relative band: a cell regresses past median * (1 + tolerance).  Wall
#: clock on shared CI runners is noisy; 0.5 catches the step changes the
#: gate is for (a 2x slowdown) without paging on scheduler jitter.
DEFAULT_TOLERANCE = 0.5
#: priors required before a cell is judged
DEFAULT_MIN_RUNS = 3
#: absolute excess (seconds) required on top of the relative band
DEFAULT_ABS_FLOOR = 0.05
#: escape hatch for intentional performance trade-offs
ALLOW_ENV = "REPRO_REGRESS_ALLOW"


def stratum_of(record: dict) -> tuple:
    """The comparability key of one session's ledger line."""
    host = record.get("host") or {}
    return (host.get("cpus"), record.get("scale"), record.get("jobs"))


@dataclass
class CellVerdict:
    """One cell's comparison against its stratified baseline."""

    grid: str
    key: str
    wall: float
    status: str                      # regression | improved | ok |
    #                                # no-baseline | tiny
    baseline_runs: int = 0
    baseline_median: float = 0.0

    @property
    def ratio(self) -> Optional[float]:
        if self.baseline_median > 0:
            return self.wall / self.baseline_median
        return None

    def describe(self) -> str:
        if self.ratio is None:
            return f"{self.grid} / {self.key}: {self.status}"
        return (f"{self.grid} / {self.key}: wall {self.wall:.3f}s vs "
                f"median {self.baseline_median:.3f}s over "
                f"{self.baseline_runs} prior runs "
                f"({self.ratio:.2f}x) -> {self.status}")


def _cells_of(record: dict):
    """Yield ``(grid_name, cell_dict)`` for every cell in a session.

    Grid lines that list only grid names (no per-cell payload) yield
    nothing.
    """
    for grid in record.get("grids") or []:
        if not isinstance(grid, dict):
            continue
        name = grid.get("name", "?")
        for cell in grid.get("cells") or []:
            if isinstance(cell, dict) and "key" in cell:
                yield name, cell


def _cell_identity(grid_name: str, cell: dict) -> tuple:
    """Cells match on grid name and cell key."""
    return (grid_name, str(cell["key"]))


def compare_records(fresh: dict, priors: list,
                    tolerance: float = DEFAULT_TOLERANCE,
                    min_runs: int = DEFAULT_MIN_RUNS,
                    abs_floor: float = DEFAULT_ABS_FLOOR) -> list:
    """Judge every cell of *fresh* against same-stratum *priors*.

    Returns :class:`CellVerdict` rows in the fresh record's cell order
    (deterministic).  *priors* are pre-filtered here: sessions from a
    different stratum never contribute baseline samples.
    """
    stratum = stratum_of(fresh)
    baselines: dict[tuple, list] = {}
    for prior in priors:
        if stratum_of(prior) != stratum:
            continue
        for grid_name, cell in _cells_of(prior):
            wall = cell.get("wall_seconds")
            if isinstance(wall, (int, float)):
                baselines.setdefault(
                    _cell_identity(grid_name, cell), []).append(float(wall))

    verdicts = []
    for grid_name, cell in _cells_of(fresh):
        wall = float(cell.get("wall_seconds") or 0.0)
        verdict = CellVerdict(grid=grid_name, key=str(cell["key"]),
                              wall=wall, status="ok")
        samples = baselines.get(_cell_identity(grid_name, cell), [])
        verdict.baseline_runs = len(samples)
        if len(samples) < min_runs:
            verdict.status = "no-baseline"
        else:
            median = statistics.median(samples)
            verdict.baseline_median = median
            if median <= 0.0:
                verdict.status = "tiny"
            elif wall > median * (1.0 + tolerance) \
                    and wall - median > abs_floor:
                verdict.status = "regression"
            elif wall < median * (1.0 - tolerance) \
                    and median - wall > abs_floor:
                verdict.status = "improved"
        verdicts.append(verdict)
    return verdicts


def format_regression_report(verdicts: list, fresh: dict, tolerance: float,
                             min_runs: int, abs_floor: float,
                             allowed: bool) -> str:
    """The ``results/regression_report.txt`` body (deterministic)."""
    stratum = stratum_of(fresh)
    lines = ["performance regression report",
             "=============================",
             f"candidate session: {fresh.get('ts', '?')}",
             f"stratum: cpus={stratum[0]} scale={stratum[1]} "
             f"jobs={stratum[2]}",
             f"policy: regression when wall > median * {1 + tolerance:g} "
             f"and excess > {abs_floor:g}s, over >= {min_runs} "
             f"same-stratum prior runs",
             ""]
    rows = []
    for verdict in verdicts:
        median = (f"{verdict.baseline_median:.3f}"
                  if verdict.baseline_median else "-")
        ratio = f"{verdict.ratio:.2f}" if verdict.ratio is not None else "-"
        rows.append([verdict.grid, verdict.key, f"{verdict.wall:.3f}",
                     median, verdict.baseline_runs, ratio, verdict.status])
    lines.append(format_table(
        "per-cell verdicts (wall seconds, host clock)",
        ["Grid", "Cell", "Wall", "Median", "Runs", "Ratio", "Status"],
        rows))
    lines.append("")
    regressions = [v for v in verdicts if v.status == "regression"]
    improved = [v for v in verdicts if v.status == "improved"]
    unjudged = sum(1 for v in verdicts
                   if v.status in ("no-baseline", "tiny"))
    lines.append(f"cells judged: {len(verdicts) - unjudged}/{len(verdicts)} "
                 f"(rest lack a >= {min_runs}-run same-stratum baseline)")
    lines.append(f"improvements: {len(improved)}")
    lines.append(f"regressions: {len(regressions)}")
    for verdict in regressions:
        lines.append(f"  REGRESSION: {verdict.describe()}")
    for verdict in improved:
        lines.append(f"  improved: {verdict.describe()}")
    if regressions and allowed:
        lines.append(f"exit forced to 0: {ALLOW_ENV} is set "
                     f"(intentional trade-off on record)")
    return "\n".join(lines) + "\n"


def gate(ledger: Optional[Path],
         tolerance: float = DEFAULT_TOLERANCE,
         min_runs: int = DEFAULT_MIN_RUNS,
         abs_floor: float = DEFAULT_ABS_FLOOR) -> tuple:
    """Run the gate over the ``grid`` lines of the run ledger at *ledger*
    (None when ``REPRO_LEDGER`` disables it); returns
    ``(verdicts, fresh_record)``.

    Raises :class:`SystemExit` only from :func:`main`; this function is
    pure so tests (and other tools) can call it directly.
    """
    sessions = [record for record in read_ledger(ledger)
                if record.get("cmd") == "grid"] \
        if ledger is not None else []
    if not sessions:
        raise FileNotFoundError(
            f"no benchmark sessions in the run ledger ({ledger}) -- run "
            f"the benchmark grid first "
            f"(python -m pytest benchmarks -q --benchmark-only)")
    fresh = sessions[-1]
    verdicts = compare_records(fresh, sessions[:-1], tolerance=tolerance,
                               min_runs=min_runs, abs_floor=abs_floor)
    return verdicts, fresh


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness regress",
        description="compare the freshest benchmark session in the run "
                    "ledger (results/ledger.jsonl, or REPRO_LEDGER) against "
                    "the stratified per-cell history; exit 1 on regression")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="relative band (default %(default)s: flag "
                             "wall > median * 1.5)")
    parser.add_argument("--min-runs", type=int, default=DEFAULT_MIN_RUNS,
                        help="prior runs required per cell "
                             "(default %(default)s)")
    parser.add_argument("--abs-floor", type=float,
                        default=DEFAULT_ABS_FLOOR,
                        help="absolute excess seconds required "
                             "(default %(default)s)")
    parser.add_argument("--out", default=os.path.join(
        "results", "regression_report.txt"),
        help="report path (default results/regression_report.txt)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    ledger = ledger_path()
    try:
        verdicts, fresh = gate(ledger, tolerance=args.tolerance,
                               min_runs=args.min_runs,
                               abs_floor=args.abs_floor)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    allowed = bool(os.environ.get(ALLOW_ENV))
    report = format_regression_report(verdicts, fresh,
                                      tolerance=args.tolerance,
                                      min_runs=args.min_runs,
                                      abs_floor=args.abs_floor,
                                      allowed=allowed)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        handle.write(report)
    print(report, end="")
    print(f"wrote {args.out}")

    regressions = [v for v in verdicts if v.status == "regression"]
    append_ledger("regress", {
        "ledger": str(ledger),
        "candidate": fresh.get("ts"),
        "cells": len(verdicts),
        "regressions": len(regressions),
        "improved": sum(1 for v in verdicts if v.status == "improved"),
        "tolerance": args.tolerance,
        "allowed": allowed,
        "wall_seconds": round(time.perf_counter() - start, 3),
    })
    if regressions:
        for verdict in regressions:
            print(f"REGRESSION: {verdict.describe()}", file=sys.stderr)
        if allowed:
            print(f"{ALLOW_ENV} set: exiting 0 despite "
                  f"{len(regressions)} regression(s)", file=sys.stderr)
            return 0
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
