"""Rotation of the BENCH_perf.json trajectory into its history sidecar,
plus the host-fact enrichment/migration the regression gate relies on."""

import json
import os

import pytest

from repro.harness.perflog import (
    DEFAULT_KEEP,
    append_record,
    build_session_record,
    history_path_for,
    load_history,
    load_records,
    migrate_record,
)


def record(n: int) -> dict:
    return {"session": n, "wall_seconds": float(n)}


def sessions(records: list) -> list:
    return [r["session"] for r in records]


class TestHistoryPath:
    def test_json_suffix_swapped(self, tmp_path):
        assert history_path_for(tmp_path / "BENCH_perf.json") \
            == tmp_path / "BENCH_perf.history.jsonl"

    def test_other_suffixes_appended(self, tmp_path):
        assert history_path_for(tmp_path / "perf.dat").name \
            == "perf.dat.history.jsonl"


class TestLoadRecords:
    def test_missing_file_is_empty(self, tmp_path):
        assert load_records(tmp_path / "nope.json") == []

    def test_legacy_single_dict_wrapped_and_migrated(self, tmp_path):
        path = tmp_path / "perf.json"
        path.write_text(json.dumps(record(1)))
        loaded = load_records(path)
        assert sessions(loaded) == [1]
        # lenient migration: stratification keys appear as placeholders
        assert loaded[0]["host"] == {"platform": None, "python": None,
                                     "cpus": None}
        assert loaded[0]["kernel"] is None
        assert loaded[0]["scale"] is None

    def test_garbage_tolerated(self, tmp_path):
        path = tmp_path / "perf.json"
        path.write_text("{not json")
        assert load_records(path) == []


class TestMigration:
    def test_partial_host_block_completed(self):
        migrated = migrate_record({"host": {"cpus": 4}, "kernel": "fast"})
        assert migrated["host"] == {"platform": None, "python": None,
                                    "cpus": 4}
        assert migrated["kernel"] == "fast"

    def test_existing_values_never_clobbered(self):
        migrated = migrate_record({"scale": 0.15, "jobs": 2})
        assert migrated["scale"] == 0.15
        assert migrated["jobs"] == 2

    def test_non_dict_passed_through(self):
        assert migrate_record("junk") == "junk"


class TestAppendRecord:
    def test_appends_below_cap_without_history(self, tmp_path):
        path = tmp_path / "perf.json"
        for n in range(3):
            retained = append_record(path, record(n), keep=5)
        assert sessions(retained) == [0, 1, 2]
        assert sessions(load_records(path)) == [0, 1, 2]
        assert not history_path_for(path).exists()

    def test_append_enriches_with_real_host_facts(self, tmp_path):
        path = tmp_path / "perf.json"
        retained = append_record(path, record(0), keep=5)
        host = retained[0]["host"]
        assert host["cpus"] == (os.cpu_count() or 1)
        assert "numpy" not in host
        assert host["platform"]
        # an explicit host block is preserved, not overwritten
        retained = append_record(
            path, {"session": 1, "host": {"cpus": 99}}, keep=5)
        assert retained[1]["host"]["cpus"] == 99

    def test_rotates_overflow_into_history_jsonl(self, tmp_path):
        path = tmp_path / "perf.json"
        for n in range(7):
            append_record(path, record(n), keep=3)
        # main file: the newest 3 only
        assert sessions(load_records(path)) == [4, 5, 6]
        # history: the 4 rotated-out sessions, oldest first, one per line
        lines = history_path_for(path).read_text().splitlines()
        assert [json.loads(line)["session"] for line in lines] == [0, 1, 2, 3]
        # and the history loader migrates them too
        history = load_history(history_path_for(path))
        assert sessions(history) == [0, 1, 2, 3]
        assert all("host" in r for r in history)

    def test_main_file_never_exceeds_keep(self, tmp_path):
        path = tmp_path / "perf.json"
        for n in range(2 * DEFAULT_KEEP + 5):
            retained = append_record(path, record(n))
            assert len(retained) <= DEFAULT_KEEP
        assert len(load_records(path)) == DEFAULT_KEEP

    def test_explicit_history_path(self, tmp_path):
        path = tmp_path / "perf.json"
        history = tmp_path / "elsewhere.jsonl"
        append_record(path, record(0), keep=1, history_path=history)
        append_record(path, record(1), keep=1, history_path=history)
        assert json.loads(history.read_text().splitlines()[0])["session"] == 0
        assert not history_path_for(path).exists()

    def test_legacy_dict_file_upgraded_in_place(self, tmp_path):
        path = tmp_path / "perf.json"
        path.write_text(json.dumps(record(0)))
        retained = append_record(path, record(1), keep=5)
        assert sessions(retained) == [0, 1]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            append_record(tmp_path / "perf.json", record(0), keep=0)


class TestBuildSessionRecord:
    def test_schema_matches_gate_expectations(self):
        from repro.harness.parallel import CellStats, GridReport
        grid = GridReport(name="g", jobs=2, wall_seconds=1.0)
        grid.cells.append(CellStats(key="('copy', 'Soft Updates')",
                                    wall_seconds=0.5, sim_events=1000,
                                    extra={"kernel": "fast"}))
        rec = build_session_record([grid], scale=0.15, jobs=2,
                                   kernel="python", timestamp="t")
        assert rec["kernel"] == "python"
        assert rec["host"]["cpus"] == (os.cpu_count() or 1)
        cell = rec["grids"][0]["cells"][0]
        assert cell["wall_seconds"] == 0.5
        assert cell["events_per_second"] == 2000
        assert cell["kernel"] == "fast"
