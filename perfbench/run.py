"""The repository benchmark: one command, three workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload copy4 --seed 1994 --seconds 30

``--trace 0`` measures the end-to-end metrics: the workload's cells (one
per standard ordering scheme) run in rounds until ``--seconds`` of wall
time are used; every time is the per-cell median over the rounds, summed
over cells.  ``--trace 1`` runs one untraced round, then one round with the
outside-in layer tracer (``perfbench/tracer.py``) installed, and reports
the per-layer metrics.  Either way every cell's output is checked: its
behaviour fingerprint must match the recorded one (``fingerprints.json``,
for the recorded seeds), every round and the traced round must reproduce
it, and the workload's own semantic check must pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record`` runs one round and stores its fingerprints for the seed.
See ``perfbench/README.md`` for the workloads, metrics and baselines.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
DEFAULT_SEED = 1994

#: end-to-end metric -> unit
END_TO_END = {
    "run_cpu_s": "s",
    "run_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    #: simulated seconds, deterministic for a seed
    "sim_s": "sim-s",
    "ok_ratio": "ratio",
}

LAYERS = ("sim", "fs", "cache", "ordering", "driver", "disk", "integrity",
          "workloads")
SUB_LAYERS = ("disk.store", "integrity.fsck", "integrity.repair",
              "integrity.synth", "integrity.monitor")
#: modelled counters summed over cells
ADDITIVE_COUNTERS = (
    "sim.events", "cache.hits", "cache.misses", "cache.forced_flushes",
    "driver.requests", "driver.reads", "driver.writes", "disk.busy_s",
    "disk.sectors_written", "disk.cache_hit_reads",
    "ordering.softupdates.rollbacks", "ordering.softupdates.deps_created",
    "syncer.workitems_run", "integrity.points", "integrity.unexpected")
#: the traced phase's layer self times must sum to its total within this
ATTRIBUTION_TOLERANCE = 0.01
#: rounds a measured run makes at least, so every median is over three
#: executions and the first (warming) round never decides one
MIN_ROUNDS = 3


def scrub_environment() -> None:
    """Drop every ``REPRO_*`` knob so the run uses the library defaults."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


# ----------------------------------------------------------------------
# one cell
# ----------------------------------------------------------------------
class CellRun:
    """The measurements and checks of one execution of one cell."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.setup_cpu = self.run_cpu = self.run_wall = 0.0
        self.verify_wall = 0.0
        self.sim_s = 0.0
        self.fingerprint: dict = {}
        self.counters: dict = {}
        self.work = 0
        self.unexpected = 0
        self.problem = ""
        self.provenance = ("", "")
        #: traced runs only: label -> self seconds / spans, per phase
        self.setup_layers: dict = {}
        self.run_layers: dict = {}
        self.run_calls: dict = {}


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def run_cell(cell, verify: bool, tracer=None) -> CellRun:
    """Set up, measure, fingerprint and (optionally) verify one cell."""
    out = CellRun(cell.name)
    gc.collect()
    try:
        if tracer is not None:
            base = tracer.self_seconds()
            tracer.start()
        c0 = time.process_time()
        cell.setup()
        out.setup_cpu = time.process_time() - c0
        if tracer is not None:
            tracer.stop()
            after_setup = tracer.self_seconds()
            calls_before = tracer.calls()
        cell.begin()
        gc.collect()
        if tracer is not None:
            tracer.start()
        c1, w1 = time.process_time(), time.perf_counter()
        cell.run()
        c2, w2 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.stop()
            out.setup_layers = _delta(after_setup, base)
            out.run_layers = _delta(tracer.self_seconds(), after_setup)
            out.run_calls = _delta(tracer.calls(), calls_before)
        out.run_cpu, out.run_wall = c2 - c1, w2 - w1
        out.counters = cell.layer_counters()
        out.sim_s, out.fingerprint, out.work = cell.outcome()
        out.unexpected = cell.unexpected_points()
        out.provenance = cell.provenance()
        if verify:
            v0 = time.perf_counter()
            cell.verify()
            out.verify_wall = time.perf_counter() - v0
    except Exception:  # noqa: BLE001 - a failing cell is counted, not fatal
        out.problem = traceback.format_exc().strip().splitlines()[-1]
        traceback.print_exc(file=sys.stderr)
        if tracer is not None and tracer.active:
            tracer.stop()
    finally:
        cell.machine = None
    return out


# ----------------------------------------------------------------------
# correctness accounting
# ----------------------------------------------------------------------
def load_fingerprints() -> dict:
    if FINGERPRINTS.exists():
        return json.loads(FINGERPRINTS.read_text())
    return {}


class Tally:
    """Attempted / failed work against the reference fingerprints."""

    def __init__(self, reference: dict, per_point: bool) -> None:
        #: cell name -> fingerprint (recorded, else the first clean run)
        self.reference = dict(reference)
        self.per_point = per_point
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, run: CellRun, max_work: int) -> None:
        if not run.problem:
            self.reference.setdefault(run.name, run.fingerprint)
            if run.fingerprint != self.reference[run.name]:
                run.problem = (f"fingerprint {run.fingerprint} != "
                               f"reference {self.reference[run.name]}")
        work = (run.work or max_work) if self.per_point else 1
        self.attempted += work
        if run.problem:
            self.failed += work
            self.problems.append(f"{run.name}: {run.problem}")
        elif self.per_point:
            self.failed += run.unexpected


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------
def median_sum(rounds: list[list[CellRun]], attr: str) -> float:
    """Per-cell median over the clean rounds, summed over cells."""
    total = 0.0
    for column in zip(*rounds):
        values = [getattr(run, attr) for run in column if not run.problem]
        if values:
            total += statistics.median(values)
    return total


def first_clean(rounds: list[list[CellRun]]) -> list[CellRun]:
    """Per cell, the first execution without a problem."""
    out = []
    for column in zip(*rounds):
        clean = [run for run in column if not run.problem]
        out.append(clean[0] if clean else column[0])
    return out


def measure(workloads, args, tally: Tally) -> tuple[dict, list]:
    """Rounds of every cell until ``args.seconds`` are used."""
    rounds: list[list[CellRun]] = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        runs = [run_cell(cell, verify=not rounds)
                for cell in workloads.cells(args.workload, args.seed)]
        for run in runs:
            tally.add(run, workloads.max_work(args.workload))
        rounds.append(runs)
        round_wall = time.perf_counter() - r0 - sum(r.verify_wall
                                                   for r in runs)
        if args.record or (len(rounds) >= MIN_ROUNDS
                           and time.perf_counter() - start + round_wall
                           > args.seconds):
            break
    clean = first_clean(rounds)
    failed_share = tally.failed / tally.attempted
    metrics = {
        "run_cpu_s": median_sum(rounds, "run_cpu"),
        "run_wall_s": median_sum(rounds, "run_wall"),
        "setup_s": median_sum(rounds, "setup_cpu"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_s": sum(run.sim_s for run in clean),
        "ok_ratio": 1.0 - failed_share,
    }
    return metrics, rounds


def traced(workloads, args, tally: Tally) -> tuple[dict, list]:
    """One untraced round, then one traced round; per-layer metrics."""
    from perfbench.tracer import LayerTracer, top_layer

    max_work = workloads.max_work(args.workload)
    plain = [run_cell(cell, verify=True)
             for cell in workloads.cells(args.workload, args.seed)]
    for run in plain:
        tally.add(run, max_work)
    tracer = LayerTracer()
    tracer.install()
    try:
        runs = [run_cell(cell, verify=False, tracer=tracer)
                for cell in workloads.cells(args.workload, args.seed)]
    finally:
        tracer.uninstall()
    for run in runs:
        tally.add(run, max_work)

    untraced_cpu = sum(run.run_cpu for run in plain)
    traced_cpu = sum(run.run_cpu for run in runs)
    metrics: dict = {}
    for prefix, phase in (("host", "run_layers"),
                          ("setup.host", "setup_layers")):
        totals = {layer: 0.0 for layer in LAYERS + ("other",)}
        for run in runs:
            for label, seconds in getattr(run, phase).items():
                totals[top_layer(label)] += seconds
        for layer, seconds in totals.items():
            if prefix == "host" or layer != "other":
                metrics[f"{prefix}.{layer}.self_s"] = seconds
    for layer in LAYERS:
        metrics[f"host.{layer}.calls"] = sum(
            calls for run in runs for label, calls in run.run_calls.items()
            if top_layer(label) == layer)
    for sub in SUB_LAYERS:
        metrics[f"host.{sub}.self_s"] = sum(
            run.run_layers.get(sub, 0.0) for run in runs)

    attributed = sum(sum(run.run_layers.values()) for run in runs)
    if traced_cpu and abs(attributed / traced_cpu - 1) > ATTRIBUTION_TOLERANCE:
        tally.problems.append(
            f"layer self times sum to {attributed:.4f}s, traced phase "
            f"took {traced_cpu:.4f}s")
        tally.failed += 1

    sums: dict = {}
    for run in runs:
        for key, value in run.counters.items():
            sums[key] = sums.get(key, 0) + value
    for key in ADDITIVE_COUNTERS:
        metrics[key] = sums.get(key, 0)
    lookups = sums.get("cache.hits", 0) + sums.get("cache.misses", 0)
    requests = sums.get("window_requests", 0)
    metrics.update({
        "sim.events_per_cpu_s": (sums.get("sim.events", 0) / untraced_cpu
                                 if untraced_cpu else 0.0),
        "cache.hit_ratio": sums.get("cache.hits", 0) / lookups
        if lookups else 0.0,
        "driver.queue_wait_avg_s": sums.get("queue_wait_sum", 0.0) / requests
        if requests else 0.0,
        "disk.access_avg_s": sums.get("access_sum", 0.0) / requests
        if requests else 0.0,
        "integrity.points_per_cpu_s":
            sums.get("integrity.points", 0) / untraced_cpu
            if untraced_cpu else 0.0,
        "trace.overhead": traced_cpu / untraced_cpu if untraced_cpu else 0.0,
    })
    return metrics, [plain, runs]


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def describe(args, rounds: list[list[CellRun]], metrics: dict,
             tally: Tally, units: dict) -> None:
    """Human-readable lines ahead of the result line."""
    provenance = sorted({run.provenance for runs in rounds for run in runs
                         if not run.problem})
    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {len(rounds)}  trace {args.trace}  "
          f"kernel/store {provenance}")
    print(f"{'cell':14s} {'setup_cpu':>9s} {'run_cpu':>8s} {'run_wall':>8s}"
          f" {'sim_s':>10s}  fingerprint")
    for runs in rounds:
        for run in runs:
            print(f"{run.name:14s} {run.setup_cpu:9.3f} {run.run_cpu:8.3f} "
                  f"{run.run_wall:8.3f} {run.sim_s:10.4f}  "
                  f"{run.problem or run.fingerprint}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value!r:>24s} {units.get(name, '')}")
    if not args.trace:
        print(f"  {'fail_ratio':36s} "
              f"{tally.failed / tally.attempted!r:>24s} ratio")
    for problem in tally.problems:
        print(f"PROBLEM {problem}")


#: per-layer metrics that are simulated, not host, time
SIMULATED_TIMES = ("disk.busy_s", "driver.queue_wait_avg_s",
                   "disk.access_avg_s")


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_cpu_s"):
        return "1/s"
    if name in SIMULATED_TIMES:
        return "sim-s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one round and record its fingerprints")
    args = parser.parse_args(argv)

    scrub_environment()
    if not (ROOT / "src" / "repro").is_dir():
        # never fall back to some other installed copy of the simulator
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    recorded = load_fingerprints()
    reference = ({} if args.record else
                 recorded.get(args.workload, {}).get(str(args.seed), {}))
    tally = Tally(reference, per_point=workloads.per_point(args.workload))
    if args.trace:
        metrics, rounds = traced(workloads, args, tally)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, rounds = measure(workloads, args, tally)
        units = END_TO_END
    correct = tally.failed == 0 and not tally.problems
    describe(args, rounds, metrics, tally, units)
    if args.record:
        if not correct:
            print("not recording: the run had problems", file=sys.stderr)
            return 1
        recorded.setdefault(args.workload, {})[str(args.seed)] = {
            run.name: run.fingerprint for run in rounds[0]}
        FINGERPRINTS.write_text(json.dumps(recorded, indent=1,
                                           sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
