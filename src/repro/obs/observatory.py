"""The run ledger: every harness invocation leaves a structured record.

One JSON object per line appended to ``results/ledger.jsonl`` for each
harness entry point (``trace``, ``faults``, ``explore``, the headline
``bench`` comparison, ``regress``, and ``grid`` for a benchmark session)
-- subcommand, configuration, wall/sim time, throughput, a behaviour
digest, and host facts (CPU count, platform, Python version) so records
from different machines are never conflated.  It is the only run record:
a ``grid`` line carries the session's per-cell payload
(:func:`repro.harness.parallel.build_session_record`), which the
regression gate judges and the perf/profile reports are rendered from.

Appends are concurrency-safe: each record is a single ``os.write`` to an
``O_APPEND`` descriptor, so grid cells (or whole sweeps) appending from
forked workers interleave per *line*, never per byte
(``tests/obs/test_observatory.py`` hammers this from a fork pool).

``REPRO_LEDGER`` overrides the path; ``REPRO_LEDGER=off`` disables the
ledger entirely (useful for throwaway runs).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Optional

__all__ = ["append_ledger", "host_facts", "ledger_path", "read_ledger",
           "snapshot_digest"]

#: default ledger location, relative to the invocation cwd (gitignored)
DEFAULT_LEDGER = Path("results") / "ledger.jsonl"

#: values of ``REPRO_LEDGER`` that disable the ledger
_OFF = {"off", "none", "0", ""}

def host_facts() -> dict:
    """Facts that stratify performance records across machines.

    The regression gate refuses to compare cells across differing strata
    (a 4-core runner against a 1-core container), so these are stamped
    into every ledger record at append time.
    """
    return {
        "platform": platform.system().lower() or "unknown",
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def snapshot_digest(snapshot: dict) -> str:
    """Short stable digest of an ``obs.snapshot()`` mapping.

    Two runs with identical metrics digest identically whatever the dict
    order, so the ledger can say "same observed behaviour" in 12 hex chars
    without embedding hundreds of metrics per line.
    """
    canon = json.dumps(
        {str(k): snapshot[k] for k in sorted(snapshot, key=str)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def ledger_path() -> Optional[Path]:
    """Resolved ledger path, or None when ``REPRO_LEDGER`` disables it."""
    env = os.environ.get("REPRO_LEDGER")
    if env is None:
        return DEFAULT_LEDGER
    if env.strip().lower() in _OFF:
        return None
    return Path(env)


def append_ledger(cmd: str, payload: Optional[dict] = None,
                  path: Optional[os.PathLike] = None) -> Optional[dict]:
    """Append one invocation record; returns it (None when disabled).

    The record is ``{"ts", "cmd", "host", **payload}``.  The write is a
    single ``O_APPEND`` syscall, so concurrent appenders (fork-pool grid
    cells, overlapping sweeps) produce whole, parseable lines.
    """
    target = Path(path) if path is not None else ledger_path()
    if target is None:
        return None
    record = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cmd": cmd,
        "host": host_facts(),
    }
    if payload:
        record.update(payload)
    line = json.dumps(record, separators=(",", ":"),
                      sort_keys=False, default=str) + "\n"
    target.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)
    return record


def read_ledger(path: Optional[os.PathLike] = None) -> list:
    """Parse the ledger back into record dicts (corrupt lines skipped)."""
    target = Path(path) if path is not None else ledger_path()
    if target is None or not target.exists():
        return []
    records = []
    for line in target.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records
