"""Tests of the outside-in layer tracer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pathlib
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.tracer import LayerTracer, layer_of, top_layer  # noqa: E402
from repro.driver.driver import DeviceDriver  # noqa: E402
from repro.ordering.registry import REGISTRY  # noqa: E402

#: host CPU burnt per injected call
INJECTED_COST = 0.001


def spin(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


# ----------------------------------------------------------------------
# span accounting on toy functions
# ----------------------------------------------------------------------
def test_generator_resumptions_are_spans_and_protocol_is_kept():
    tracer = LayerTracer()

    def inner():
        spin(0.01)
        got = yield "first"
        spin(0.01)
        try:
            yield got * 2
        except KeyError:
            spin(0.01)
            return "caught"

    def outer():
        spin(0.01)
        gen = traced_inner()
        first = next(gen)
        second = gen.send(21)
        try:
            gen.throw(KeyError("x"))
        except StopIteration as stop:
            return first, second, stop.value

    traced_inner = tracer._wrap(inner, "b")
    traced_outer = tracer._wrap(outer, "a")
    tracer.start()
    result = traced_outer()
    tracer.stop()

    assert result == ("first", 42, "caught")
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    assert calls["a"] == 1
    assert calls["b"] == 4          # the creating call + three resumptions
    assert self_s["a"] == pytest.approx(0.01, abs=0.005)
    assert self_s["b"] == pytest.approx(0.03, abs=0.005)
    assert sum(self_s.values()) == pytest.approx(tracer.phase_s, rel=1e-9)


def test_same_layer_calls_open_no_span():
    tracer = LayerTracer()

    def helper():
        spin(0.002)

    traced_helper = tracer._wrap(helper, "a")
    traced_entry = tracer._wrap(lambda: [traced_helper() for _ in range(5)],
                                "a")
    tracer.start()
    traced_entry()
    tracer.stop()
    assert tracer.calls()["a"] == 1
    assert tracer.self_seconds()["a"] == pytest.approx(0.01, abs=0.004)


def test_layers_follow_module_names():
    assert layer_of("repro.sim.engine") == "sim"
    assert layer_of("repro.disk.storage") == "disk.store"
    assert layer_of("repro.disk.drive") == "disk"
    assert layer_of("repro.integrity.medialog") == "integrity.synth"
    assert layer_of("repro.harness.runner") is None


def test_install_and_uninstall_restore_the_originals():
    original = DeviceDriver.issue
    tracer = LayerTracer()
    tracer.install()
    try:
        assert DeviceDriver.issue is not original
        assert DeviceDriver.issue.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert DeviceDriver.issue is original


# ----------------------------------------------------------------------
# a real cell: fingerprint identity and attribution
# ----------------------------------------------------------------------
def remove_cell():
    return workloads.RemoveCell(REGISTRY["conventional"], 1994)


def traced_cell(inject: bool = False):
    """Run the Conventional remove cell traced; layer totals + fingerprint."""
    calls = [0]
    original = DeviceDriver.issue
    if inject:
        def issue(self, *args, **kwargs):
            calls[0] += 1
            spin(INJECTED_COST)
            return original(self, *args, **kwargs)
        DeviceDriver.issue = issue
    tracer = LayerTracer()
    tracer.install()
    try:
        cell = remove_cell()
        cell.setup()
        cell.begin()
        calls[0] = 0
        tracer.start()
        start = time.process_time()
        cell.run()
        phase = time.process_time() - start
        tracer.stop()
        _sim_s, fingerprint, _work = cell.outcome()
    finally:
        tracer.uninstall()
        DeviceDriver.issue = original
    totals: dict[str, float] = {}
    for label, seconds in tracer.self_seconds().items():
        layer = top_layer(label)
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals, fingerprint, phase, calls[0]


def test_traced_run_keeps_the_fingerprint_and_adds_up():
    cell = remove_cell()
    cell.setup()
    cell.begin()
    cell.run()
    _sim_s, untraced, _work = cell.outcome()
    totals, traced, phase, _calls = traced_cell()
    assert traced == untraced
    assert sum(totals.values()) == pytest.approx(phase, rel=0.01)


def test_injected_cost_is_named_by_its_layer():
    base_a, _fp, _phase, _calls = traced_cell()
    base_b, _fp, _phase, _calls = traced_cell()
    hit, _fp, _phase, issues = traced_cell(inject=True)
    injected = issues * INJECTED_COST
    assert issues > 100
    rise = hit["driver"] - base_a["driver"]
    assert rise == pytest.approx(injected, rel=0.15)
    for layer, seconds in base_a.items():
        if layer == "driver":
            continue
        noise = abs(seconds - base_b.get(layer, 0.0))
        allowed = max(3 * noise, 0.1 * seconds, 0.02)
        assert abs(hit.get(layer, 0.0) - seconds) <= allowed, layer
