"""The per-layer counting profiler: attribution sanity, conservation
against the offline flame fold, report rendering, and the determinism
discipline -- a profiled run is the same simulation as a bare one."""

import pytest

from repro.obs import (
    LAYERS,
    flame_summary,
    format_profile_report,
    profile_rows,
    summarize,
)
from tests.conftest import SCHEME_FACTORIES, make_machine, run_user
from tests.obs.test_equivalence import churn, driver_trace_digest


def run_profiled(scheme_name, profile=True):
    machine = make_machine(scheme_name, free_cpu=False, observe=profile,
                           profile=profile)
    run_user(machine, churn(machine)(), name="user0")
    machine.sync_and_settle()
    return machine


class TestAttribution:
    def test_layers_see_their_time(self):
        snapshot = run_profiled("softupdates").obs.snapshot()
        # syscalls, cache waits and drive mechanics all burned sim time
        assert snapshot["profile.vfs.sim"] > 0
        assert snapshot["profile.cache.sim"] > 0
        assert snapshot["profile.drive.sim"] > 0
        # driver queue residencies are async: counted, never folded
        assert snapshot["profile.driver.spans"] > 0
        assert snapshot["profile.driver.sim"] == 0.0
        for layer in LAYERS:
            assert snapshot[f"profile.{layer}.sim"] >= 0.0

    def test_self_time_conserved_against_flame_fold(self):
        """The online fold (child subtraction, retrospective parents) must
        agree with the offline flame summary's self-time totals."""
        machine = run_profiled("softupdates")
        snapshot = machine.obs.snapshot()
        online = sum(snapshot[f"profile.{layer}.sim"] for layer in LAYERS)
        offline = sum(stat.self_time
                      for summary in summarize(machine.obs).values()
                      for stat in summary.paths.values())
        assert online == pytest.approx(offline, abs=1e-9)

    def test_unprofiled_snapshot_has_no_profile_keys(self):
        machine = make_machine("softupdates", observe=True)
        run_user(machine, churn(machine)(), name="user0")
        assert not any(key.startswith("profile.")
                       for key in machine.obs.snapshot())


class TestPerfExtra:
    def test_run_result_carries_profile_slice(self):
        from repro.harness.metrics import collect
        machine = run_profiled("conventional")
        result = collect(machine, [], 0)
        assert result.perf_extra
        assert all(key.startswith("profile.") or key in ("kernel", "store")
                   for key in result.perf_extra)
        assert result.perf_extra["profile.vfs.sim"] \
            == result.extra["profile.vfs.sim"]

    def test_carries_store_provenance(self):
        from repro.harness.metrics import collect
        machine = run_profiled("conventional")
        result = collect(machine, [], 0)
        assert result.perf_extra["store"] == machine.disk.storage.name

    def test_setter_merges_host_tags(self):
        from repro.harness.metrics import RunResult
        result = RunResult(scheme="x")
        result.perf_extra = {"kernel": "python"}
        assert result.extra["kernel"] == "python"
        assert result.perf_extra == {"kernel": "python"}

    def test_empty_without_profiler(self):
        from repro.harness.metrics import RunResult
        assert RunResult(scheme="x", extra={"other": 1}).perf_extra == {}


class TestReportRendering:
    def test_rows_share(self):
        snapshot = run_profiled("softupdates").obs.snapshot()
        rows = profile_rows(snapshot)
        assert [row[0] for row in rows] == list(LAYERS)
        assert all(len(row) == 4 for row in rows)
        assert sum(row[3] for row in rows) == pytest.approx(1.0)

    def test_rows_empty_without_profile_keys(self):
        assert profile_rows({"engine.events": 5}) == []

    def test_report_skips_unprofiled_cells(self):
        snapshot = run_profiled("softupdates").obs.snapshot()
        report = format_profile_report(
            [("profiled", 1.0, snapshot), ("bare", 1.0, {})])
        assert "profiled" in report
        assert "bare" not in report
        assert "vfs" in report

    def test_report_names_the_knob_when_nothing_profiled(self):
        report = format_profile_report([("bare", 1.0, {})])
        assert "REPRO_PROFILE" in report


class TestDeterminismDiscipline:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    def test_profiled_run_is_simulation_identical(self, scheme_name):
        bare = run_profiled(scheme_name, profile=False)
        profiled = run_profiled(scheme_name, profile=True)
        assert profiled.obs is not None and bare.obs is None
        assert profiled.engine.events_processed \
            == bare.engine.events_processed
        assert profiled.engine.now == bare.engine.now
        assert driver_trace_digest(profiled) == driver_trace_digest(bare)

    def test_profiled_rerun_snapshot_deterministic(self):
        a = run_profiled("chains").obs.snapshot()
        b = run_profiled("chains").obs.snapshot()
        assert a == b

    def test_profiler_keeps_counting_past_the_span_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_MAX_SPANS", "30")
        capped = run_profiled("softupdates")
        monkeypatch.setenv("REPRO_TRACE_MAX_SPANS", "0")
        full = run_profiled("softupdates")
        assert capped.obs.tracer.dropped > 0
        for layer in LAYERS:
            for suffix in ("sim", "spans"):
                key = f"profile.{layer}.{suffix}"
                assert capped.obs.snapshot()[key] \
                    == full.obs.snapshot()[key]
        assert "profile.* metrics" in flame_summary(capped.obs)
