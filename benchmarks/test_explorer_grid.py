"""Crash-exploration throughput: media-log synthesis vs the replay oracle.

Not a paper table -- this grid tracks the *harness's own* performance, the
point of the synthesis pipeline: verifying a crash point costs O(sector
application + fsck) instead of O(full prefix replay).  Each cell runs one
serial sweep (the grid itself provides the parallelism) and its
:attr:`~repro.integrity.findings.ExplorationReport.perf_extra` payload --
crash points verified, enumerated count, replays, points/sec, record vs
verify wall split -- lands in the cell's entry of the session's run-ledger
line, so the ledger shows synthesis throughput over time.  The table keeps
only the deterministic counts, so it is committed like the paper's tables.
"""

from repro.harness.report import format_table

from benchmarks.conftest import emit, run_grid
from repro.integrity.explorer import explore

SCHEMES = ["noorder", "conventional", "softupdates"]
MODES = ["synthesize", "replay"]


def test_explorer_grid(once):
    def cell(scheme, mode):
        def run():
            return explore(scheme, "microbench", seed=0, jobs=1,
                           max_points=120,
                           synthesize=(mode == "synthesize"))
        return (scheme, mode), run

    def experiment():
        cells = [cell(scheme, mode)
                 for scheme in SCHEMES for mode in MODES]
        return run_grid("explorer", cells)

    results = once(experiment)
    rows = []
    for (scheme, mode), report in results.items():
        rows.append([scheme, mode, report.points, report.enumerated_points,
                     report.replays])
    emit("explorer_grid", format_table(
        "Crash exploration: synthesis vs replay oracle",
        ["Scheme", "Mode", "Points", "Enumerated", "Replays"], rows))

    for scheme in SCHEMES:
        synth = results[(scheme, "synthesize")]
        oracle = results[(scheme, "replay")]
        # synthesis does zero post-recording simulation ...
        assert synth.mode == "synthesize" and synth.replays == 0
        assert oracle.replays == oracle.points
        # ... yet reproduces the oracle's findings exactly ...
        assert synth.findings == oracle.findings
        # ... and never verifies slower than one replay per point
        assert synth.verify_wall_seconds <= oracle.verify_wall_seconds
