"""Bounded perf-trajectory log with rotation and host-fact enrichment.

``BENCH_perf.json`` holds one record per benchmark session.  Appending
forever makes the file grow without bound (a session at scale 0.15 adds
~1 KB per grid), so :func:`append_record` keeps only the most recent
``keep`` sessions in the JSON file and rotates everything older into a
sibling ``*.history.jsonl`` -- one JSON record per line, append-only, cheap
to grep and safe to truncate independently.

Records are **enriched at append time** with the facts the regression gate
(:mod:`repro.harness.regress`) stratifies by: the event-loop kernel and
sector store names and the host's CPU count / platform.  Without them a
cell measured on a 16-core runner would be compared against a baseline
from a 1-core container -- exactly the false alarm (or false pass) the
gate exists to prevent.  Records written before this
scheme are migrated leniently on load: :func:`migrate_record` fills the
missing keys with ``None`` placeholders, which the gate treats as an
incomparable stratum, never as a match.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.obs.observatory import host_facts

#: sessions retained in the main JSON file by default
DEFAULT_KEEP = 20

#: host-fact keys every record carries after migration
_HOST_KEYS = ("platform", "python", "cpus")


def history_path_for(path: Path) -> Path:
    """The rotation target next to *path* (``BENCH_perf.history.jsonl``)."""
    return path.with_suffix("").with_suffix(".history.jsonl") \
        if path.suffix == ".json" else path.with_name(path.name + ".history.jsonl")


def migrate_record(record: dict) -> dict:
    """Fill stratification keys older records predate (in place).

    Lenient by design: a pre-enrichment record gains ``host`` (all-None)
    and ``kernel``/``scale``/``jobs`` placeholders instead of being
    rejected, so old trajectories still load, print, and rotate -- the
    regression gate simply cannot claim them as baselines for a stratum
    they never declared.
    """
    if not isinstance(record, dict):
        return record
    host = record.get("host")
    if not isinstance(host, dict):
        host = record["host"] = {}
    for key in _HOST_KEYS:
        host.setdefault(key, None)
    record.setdefault("kernel", None)
    record.setdefault("store", None)
    record.setdefault("scale", None)
    record.setdefault("jobs", None)
    return record


def load_records(path: Path) -> list:
    """The record list currently in *path* (tolerates a legacy single dict,
    a missing file, and unparseable content); records come back migrated."""
    if not path.exists():
        return []
    try:
        records = json.loads(path.read_text())
    except ValueError:
        return []
    if not isinstance(records, list):
        records = [records]
    return [migrate_record(record) for record in records]


def load_history(path: Path) -> list:
    """Rotated records from a ``*.history.jsonl`` (oldest first, migrated,
    corrupt lines skipped)."""
    path = Path(path)
    if not path.exists():
        return []
    records = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(migrate_record(record))
    return records


def append_record(path: Path, record: dict, keep: int = DEFAULT_KEEP,
                  history_path: Optional[Path] = None) -> list:
    """Append *record* to the trajectory at *path*, keeping the last *keep*.

    The record is stamped with :func:`~repro.obs.observatory.host_facts`
    unless it already carries a ``host`` block.  Overflowing records
    (oldest first) are appended to *history_path* (default:
    :func:`history_path_for`) as JSON lines before being dropped from the
    main file.  Returns the retained record list.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    path = Path(path)
    if "host" not in record:
        record = {**record, "host": host_facts()}
    records = load_records(path)
    records.append(migrate_record(dict(record)))
    overflow, retained = records[:-keep], records[-keep:]
    if overflow:
        target = Path(history_path) if history_path is not None \
            else history_path_for(path)
        with target.open("a") as fh:
            for old in overflow:
                fh.write(json.dumps(old, separators=(",", ":")) + "\n")
    path.write_text(json.dumps(retained, indent=2) + "\n")
    return retained


def build_session_record(grid_reports: list, scale: float, jobs: int,
                         kernel: str, timestamp: str,
                         store: str = None) -> dict:
    """The canonical per-session record flushed into ``BENCH_perf.json``.

    Shared by ``benchmarks/conftest.py`` (the real sessions) and the
    regression-gate tests (synthetic ones), so the gate can never drift
    from the producer's schema.
    """
    return {
        "timestamp": timestamp,
        "scale": scale,
        "jobs": jobs,
        "kernel": kernel,
        "store": store,
        "host": host_facts(),
        "wall_seconds": round(sum(g.wall_seconds for g in grid_reports), 3),
        "cell_wall_seconds": round(sum(g.cell_wall_total
                                       for g in grid_reports), 3),
        "sim_events": sum(g.sim_events for g in grid_reports),
        "grids": [
            {
                "name": grid.name,
                "jobs": grid.jobs,
                "wall_seconds": round(grid.wall_seconds, 3),
                "cell_wall_seconds": round(grid.cell_wall_total, 3),
                "sim_events": grid.sim_events,
                "cells": [
                    {
                        "key": cell.key,
                        "wall_seconds": round(cell.wall_seconds, 3),
                        "sim_events": cell.sim_events,
                        "events_per_second": round(cell.events_per_second),
                        **cell.extra,
                    }
                    for cell in grid.cells
                ],
            }
            for grid in grid_reports
        ],
    }
