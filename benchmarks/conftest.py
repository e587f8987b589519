"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's tables or figures: it runs
the workload on the simulator under each scheme configuration, prints the
rows in the paper's format, writes them to ``benchmarks/results/``, and
asserts the paper's qualitative findings (who wins, by roughly what factor).

Scale: ``REPRO_SCALE`` (default 0.15) scales file counts/bytes; 1.0 is
paper-scale.  Simulated seconds are reported, not wall seconds.

Parallelism: each benchmark's independent (scheme, config) cells run
through :func:`repro.harness.parallel.run_grid`, which fans them across a
process pool (``REPRO_JOBS`` workers, default: all cores; ``REPRO_JOBS=1``
forces serial).  Results are deterministic either way -- the regenerated
tables are byte-identical.  At session end the per-cell wall clock,
simulator event counts and ``perf_extra`` fields become one ``grid`` line
of the run ledger (``results/ledger.jsonl`` unless ``REPRO_LEDGER``
redirects it), which ``python -m repro.harness regress`` judges; the
line's payload is rendered into ``results/perf_report.txt`` (and
``results/profile_report.txt`` for profiled sessions).  All of these are
host-clock artifacts: they vary run to run, live outside the committed
tree, and are *not* part of the deterministic table output.
"""

import pathlib

import pytest

from repro.harness.parallel import (  # noqa: F401  (run_grid re-exported)
    GRID_REPORTS,
    build_session_record,
    default_jobs,
    format_perf_report,
    format_session_profile,
    run_grid,
)
from repro.harness.runner import FULL_CACHE_BYTES, scale_factor
from repro.obs.observatory import append_ledger

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: host-clock reports, beside the run ledger (gitignored)
HOST_RESULTS_DIR = pathlib.Path("results")

SCALE = scale_factor()


def scaled_cache() -> int:
    """Cache size shrunk with the workload to preserve memory pressure."""
    return max(1 * 1024 * 1024, int(FULL_CACHE_BYTES * SCALE))


def emit(name: str, text: str) -> None:
    """Print a regenerated table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture
def once(benchmark):
    """Run the experiment exactly once under pytest-benchmark timing."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return runner


def pytest_sessionfinish(session, exitstatus):
    """Record the session as one ``grid`` run-ledger line and render its
    host-clock reports from that line's payload."""
    if not GRID_REPORTS:
        return
    record = {**build_session_record(GRID_REPORTS, scale=SCALE,
                                     jobs=default_jobs()),
              "exitstatus": int(exitstatus)}
    append_ledger("grid", record)
    # an unprofiled session (no REPRO_PROFILE=1) has no profile report
    reports = {"perf_report": format_perf_report(record),
               "profile_report": format_session_profile(record)}
    HOST_RESULTS_DIR.mkdir(exist_ok=True)
    for name, text in reports.items():
        if text is None:
            continue
        (HOST_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)
