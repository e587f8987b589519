"""The parallel grid runner: serial/parallel identity and perf records."""

import os
from dataclasses import dataclass

import pytest

from repro.disk import Disk
from repro.driver import DeviceDriver, FlagPolicy, FlagSemantics
from repro.harness.parallel import (
    GRID_REPORTS,
    Cell,
    CellStats,
    GridCellError,
    GridReport,
    build_session_record,
    default_jobs,
    format_perf_report,
    format_session_profile,
    run_grid,
)
from repro.obs.observatory import append_ledger, read_ledger
from repro.sim import Engine


@dataclass
class MiniResult:
    key: str
    trace: list
    sim_events: int


def simulate(seed: int) -> MiniResult:
    """A small deterministic driver run (heavier for larger seeds, so
    parallel completion order differs from input order)."""
    engine = Engine()
    driver = DeviceDriver(engine, Disk(engine),
                          FlagPolicy(FlagSemantics.PART))
    issued = [driver.write((37 * (seed + 1) * i) % 5000, b"\x01" * 1024,
                           flag=i % 3 == 0)
              for i in range(10 + 10 * seed)]
    for request in issued:
        engine.run_until(request.done, max_events=1_000_000)
    return MiniResult(key=f"cell{seed}",
                      trace=[(r.id, r.lbn, r.complete_time)
                             for r in driver.trace],
                      sim_events=engine.events_processed)


def make_cells():
    return [Cell(f"cell{seed}", lambda seed=seed: simulate(seed))
            for seed in range(4)]


class TestRunGrid:
    def test_serial_and_parallel_results_identical(self):
        serial = run_grid("t-serial", make_cells(), jobs=1)
        parallel = run_grid("t-parallel", make_cells(), jobs=3)
        assert serial == parallel

    def test_results_keyed_in_input_order(self):
        results = run_grid("t-order", make_cells(), jobs=3)
        assert list(results) == [f"cell{seed}" for seed in range(4)]

    def test_accepts_key_fn_pairs(self):
        results = run_grid("t-pairs", [("a", lambda: 1), ("b", lambda: 2)],
                           jobs=1)
        assert results == {"a": 1, "b": 2}

    def test_grid_report_records_cells(self):
        before = len(GRID_REPORTS)
        run_grid("t-report", make_cells(), jobs=2)
        report = GRID_REPORTS[-1]
        assert len(GRID_REPORTS) == before + 1
        assert isinstance(report, GridReport)
        assert report.name == "t-report"
        assert [cell.key for cell in report.cells] \
            == [f"cell{seed}" for seed in range(4)]
        # sim_events comes off the result object; walls are measured
        assert all(cell.sim_events > 0 for cell in report.cells)
        assert all(cell.wall_seconds >= 0 for cell in report.cells)
        assert report.sim_events == sum(c.sim_events for c in report.cells)
        assert report.cell_wall_total == pytest.approx(
            sum(c.wall_seconds for c in report.cells))

    def test_results_without_sim_events_record_zero(self):
        run_grid("t-plain", [("x", lambda: 41)], jobs=1)
        assert GRID_REPORTS[-1].cells[0].sim_events == 0


def _boom():
    raise ValueError("synthetic cell failure")


class TestGridCellError:
    """A worker exception must surface naming the failing cell, not as a
    bare pickled traceback from somewhere inside the pool."""

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_failure_names_grid_and_cell(self, jobs):
        cells = [("ok0", lambda: 1),
                 (("Soft Updates", "4 users"), _boom),
                 ("ok1", lambda: 2)]
        with pytest.raises(GridCellError) as excinfo:
            run_grid("t-fail", cells, jobs=jobs)
        err = excinfo.value
        assert err.grid == "t-fail"
        assert err.key == ("Soft Updates", "4 users")
        assert "ValueError: synthetic cell failure" in err.error
        assert "synthetic cell failure" in err.cell_traceback
        assert "Soft Updates" in str(err)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_first_failure_in_input_order_wins(self, jobs):
        cells = [("a", lambda: 1), ("b", _boom), ("c", _boom)]
        with pytest.raises(GridCellError) as excinfo:
            run_grid("t-first", cells, jobs=jobs)
        assert excinfo.value.key == "b"

    def test_failed_grid_records_no_report(self):
        before = len(GRID_REPORTS)
        with pytest.raises(GridCellError):
            run_grid("t-noreport", [("x", _boom)], jobs=1)
        assert len(GRID_REPORTS) == before


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() >= 1


def session_payload(walls, events=None, extra=None):
    """A one-grid session payload built by the producer's own builder;
    every cell has 1000 sim events unless *events* says otherwise."""
    events = events or {}
    grid = GridReport(name="g", jobs=2, wall_seconds=sum(walls.values()))
    for key, wall in walls.items():
        grid.cells.append(CellStats(key=key, wall_seconds=wall,
                                    sim_events=events.get(key, 1000),
                                    extra=dict(extra or {})))
    return build_session_record([grid], scale=0.15, jobs=2)


class TestSessionRecord:
    def test_schema_matches_gate_expectations(self):
        grid = GridReport(name="g", jobs=2, wall_seconds=1.0)
        grid.cells.append(CellStats(key="('copy', 'Soft Updates')",
                                    wall_seconds=0.5, sim_events=1000,
                                    extra={"kernel": "python"}))
        rec = build_session_record([grid], scale=0.15, jobs=2)
        assert (rec["scale"], rec["jobs"]) == (0.15, 2)
        cell = rec["grids"][0]["cells"][0]
        assert cell["wall_seconds"] == 0.5
        assert cell["events_per_second"] == 2000
        assert cell["kernel"] == "python"

    def test_grid_line_carries_host_facts(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_ledger("grid", session_payload({"a": 1.0}), path=path)
        host = read_ledger(path)[0]["host"]
        assert host["cpus"] == (os.cpu_count() or 1)
        assert "numpy" not in host
        assert host["platform"]

    def test_digest_covers_behaviour_not_host_clock(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_ledger("grid", session_payload({"a": 1.70, "b": 0.40}),
                      path=path)
        append_ledger("grid", session_payload({"a": 1.71, "b": 0.55}),
                      path=path)
        first, second = read_ledger(path)
        assert first["wall_seconds"] != second["wall_seconds"]
        assert first["snapshot_digest"] == second["snapshot_digest"]
        changed = session_payload({"a": 1.70, "b": 0.40},
                                  events={"b": 1001})
        assert changed["snapshot_digest"] != first["snapshot_digest"]

    def test_reports_render_from_the_recorded_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        payload = session_payload({"a": 1.0},
                                  extra={"profile.vfs.sim": 0.5,
                                         "profile.vfs.spans": 3})
        append_ledger("grid", payload, path=path)
        recorded = read_ledger(path)[0]
        perf = format_perf_report(recorded)
        assert perf == format_perf_report(payload)
        assert "(grid total)" in perf and "scale=0.15" in perf
        profile = format_session_profile(recorded)
        assert "g / a, host wall 1.000s" in profile
        assert "vfs" in profile
        assert format_session_profile(session_payload({"a": 1.0})) is None
