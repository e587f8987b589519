"""The automated regression gate: stratified medians, both verdict
directions, the CLI exit contract, and the escape hatch."""

import pytest

from repro.harness.parallel import CellStats, GridReport, build_session_record
from repro.harness.regress import (
    ALLOW_ENV,
    compare_records,
    format_regression_report,
    gate,
    main,
    stratum_of,
)
from repro.obs.observatory import append_ledger, host_facts, read_ledger


def payload(wall_by_cell, scale=0.1, jobs=1):
    """A schema-true session payload via the producer's own builder."""
    grid = GridReport(name="paper_tables", jobs=jobs)
    for key, wall in wall_by_cell.items():
        grid.cells.append(CellStats(key=key, wall_seconds=wall,
                                    sim_events=1000))
    grid.wall_seconds = sum(wall_by_cell.values())
    return build_session_record([grid], scale=scale, jobs=jobs)


def session(wall_by_cell, scale=0.1, jobs=1, timestamp="t", cpus=None):
    """A session's ``grid`` ledger line, as ``append_ledger`` writes it."""
    host = host_facts()
    if cpus is not None:
        host["cpus"] = cpus
    return {"ts": timestamp, "cmd": "grid", "host": host,
            **payload(wall_by_cell, scale=scale, jobs=jobs)}


BASELINE = {"('copy', 'Soft Updates')": 1.0, "('remove', 'No Order')": 0.4}


def priors(n=3, **kwargs):
    return [session(BASELINE, timestamp=f"prior{i}", **kwargs)
            for i in range(n)]


class TestStratum:
    def test_matches_on_host_scale_jobs(self):
        assert stratum_of(session(BASELINE)) == stratum_of(session(BASELINE))
        assert stratum_of(session(BASELINE, cpus=1024)) \
            != stratum_of(session(BASELINE))
        assert stratum_of(session(BASELINE, scale=0.2)) \
            != stratum_of(session(BASELINE))
        assert stratum_of(session(BASELINE, jobs=4)) \
            != stratum_of(session(BASELINE))

    def test_numpy_availability_is_not_a_stratum(self):
        # older sessions stamped host.numpy; nothing reads it any more
        with_numpy = session(BASELINE)
        with_numpy["host"]["numpy"] = True
        assert stratum_of(with_numpy) == stratum_of(session(BASELINE))

    def test_migrated_legacy_record_matches_nothing_real(self):
        # a line without host facts, scale or jobs has a stratum no real
        # session shares
        legacy = {"wall_seconds": 1.0, "host": {}}
        assert stratum_of(legacy) != stratum_of(session(BASELINE))


class TestCompareRecords:
    def test_unchanged_rerun_is_ok(self):
        verdicts = compare_records(session(BASELINE), priors())
        assert [v.status for v in verdicts] == ["ok", "ok"]

    def test_slowdown_flagged_with_cell_named(self):
        fresh = session({**BASELINE, "('copy', 'Soft Updates')": 3.0})
        verdicts = compare_records(fresh, priors())
        by_key = {v.key: v for v in verdicts}
        bad = by_key["('copy', 'Soft Updates')"]
        assert bad.status == "regression"
        assert bad.ratio == pytest.approx(3.0)
        assert "('copy', 'Soft Updates')" in bad.describe()
        assert by_key["('remove', 'No Order')"].status == "ok"

    def test_speedup_reported_as_improvement(self):
        fresh = session({**BASELINE, "('copy', 'Soft Updates')": 0.3})
        statuses = {v.key: v.status
                    for v in compare_records(fresh, priors())}
        assert statuses["('copy', 'Soft Updates')"] == "improved"

    def test_median_is_robust_to_one_outlier_prior(self):
        history = priors(4) + [session(
            {**BASELINE, "('copy', 'Soft Updates')": 50.0},
            timestamp="outlier")]
        verdicts = compare_records(session(BASELINE), history)
        assert all(v.status == "ok" for v in verdicts)

    def test_min_runs_required(self):
        verdicts = compare_records(session(BASELINE), priors(2),
                                   min_runs=3)
        assert all(v.status == "no-baseline" for v in verdicts)

    def test_other_stratum_priors_never_count(self):
        # 3 priors exist, but from a different scale: no baseline
        verdicts = compare_records(session(BASELINE),
                                   priors(scale=0.2))
        assert all(v.status == "no-baseline" for v in verdicts)

    def test_abs_floor_suppresses_small_absolute_jitter(self):
        tiny = {"('copy', 'Soft Updates')": 0.010}
        fresh = session({"('copy', 'Soft Updates')": 0.030})
        history = [session(tiny, timestamp=f"p{i}") for i in range(3)]
        verdicts = compare_records(fresh, history, abs_floor=0.05)
        assert verdicts[0].status == "ok"   # 3x, but only +20ms

    def test_name_only_grid_lines_contribute_nothing(self):
        # grid lines that list grid names without a per-cell payload
        names_only = {**session(BASELINE), "grids": ["paper_tables"]}
        verdicts = compare_records(session(BASELINE),
                                   priors(2) + [names_only])
        assert all(v.baseline_runs == 2 for v in verdicts)
        assert compare_records(names_only, priors()) == []


def write_ledger(path, walls_per_session):
    """Append one ``grid`` line per session, with unrelated lines between."""
    for walls in walls_per_session:
        append_ledger("grid", payload(walls), path=path)
        append_ledger("explore", {"wall_seconds": 9.0}, path=path)


class TestReportAndGate:
    def test_gate_reads_ledger_grid_lines(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        fresh_walls = {**BASELINE, "('remove', 'No Order')": 0.5}
        write_ledger(ledger, [BASELINE] * 3 + [fresh_walls])
        append_ledger("regress", {"cells": 2}, path=ledger)
        verdicts, fresh = gate(ledger)
        assert fresh["cmd"] == "grid"
        assert [v.wall for v in verdicts] == [1.0, 0.5]
        assert [v.baseline_runs for v in verdicts] == [3, 3]

    def test_gate_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            gate(tmp_path / "nope.jsonl")
        ledger = tmp_path / "ledger.jsonl"
        append_ledger("explore", {}, path=ledger)
        with pytest.raises(FileNotFoundError):
            gate(ledger)

    def test_report_names_policy_and_regression(self):
        fresh = session({**BASELINE, "('copy', 'Soft Updates')": 3.0})
        verdicts = compare_records(fresh, priors())
        report = format_regression_report(verdicts, fresh, tolerance=0.5,
                                          min_runs=3, abs_floor=0.05,
                                          allowed=False)
        assert "median * 1.5" in report
        assert "REGRESSION" in report
        assert "('copy', 'Soft Updates')" in report
        assert "regressions: 1" in report


class TestCli:
    @pytest.fixture(autouse=True)
    def ledger(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        monkeypatch.delenv(ALLOW_ENV, raising=False)
        return path

    def run(self, tmp_path, sessions, extra_args=()):
        write_ledger(tmp_path / "ledger.jsonl", sessions)
        out = tmp_path / "regression_report.txt"
        code = main(["--out", str(out), *extra_args])
        return code, out

    def test_clean_rerun_exits_zero(self, tmp_path, capsys):
        code, out = self.run(tmp_path, [BASELINE] * 4)
        assert code == 0
        assert "regressions: 0" in out.read_text()

    def test_synthetic_slowdown_exits_one_naming_cell(self, tmp_path,
                                                      capsys):
        slow = {**BASELINE, "('copy', 'Soft Updates')": 3.0}
        code, out = self.run(tmp_path, [BASELINE] * 3 + [slow])
        assert code == 1
        report = out.read_text()
        assert "REGRESSION" in report
        assert "('copy', 'Soft Updates')" in report
        err = capsys.readouterr().err
        assert "REGRESSION" in err and "('copy', 'Soft Updates')" in err

    def test_escape_hatch_exits_zero_but_reports(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv(ALLOW_ENV, "1")
        slow = {**BASELINE, "('copy', 'Soft Updates')": 3.0}
        code, out = self.run(tmp_path, [BASELINE] * 3 + [slow])
        assert code == 0
        report = out.read_text()
        assert "REGRESSION" in report
        assert ALLOW_ENV in report

    def test_no_baseline_session_passes(self, tmp_path):
        code, out = self.run(tmp_path, [BASELINE])
        assert code == 0
        assert "no-baseline" in out.read_text()

    def test_missing_trajectory_exits_two(self, tmp_path, monkeypatch,
                                          capsys):
        code = main(["--out", str(tmp_path / "r.txt")])
        assert code == 2
        monkeypatch.setenv("REPRO_LEDGER", "off")
        code = main(["--out", str(tmp_path / "r.txt")])
        assert code == 2

    def test_tolerance_flag_tightens_the_band(self, tmp_path):
        mild = {**BASELINE, "('copy', 'Soft Updates')": 1.3}
        code, _ = self.run(tmp_path, [BASELINE] * 3 + [mild])
        assert code == 0
        # the gate's own regress line is not a session: rerunning judges
        # the same candidate against the same priors
        code, _ = self.run(tmp_path, [],
                           extra_args=["--tolerance", "0.2"])
        assert code == 1

    def test_invocation_appends_a_regress_line(self, ledger, tmp_path):
        self.run(tmp_path, [BASELINE] * 4)
        line = read_ledger(ledger)[-1]
        assert line["cmd"] == "regress"
        assert line["ledger"] == str(ledger)
        assert line["cells"] == 2
