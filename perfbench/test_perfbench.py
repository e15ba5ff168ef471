"""The benchmark's own tests: span arithmetic, determinism, no drift.

    python3 -m pytest perfbench
"""

import statistics

from repro.lsm.store import LSMTree
from repro.query import optimizer

from perfbench.layers import LAYER_SPANS, LayerTracer
from perfbench.workloads import HtapMix, SqlgenSched


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def child():
        clock.now += 2.0

    wrapped_child = tracer.wrap("child", child)

    def parent():
        clock.now += 1.0
        wrapped_child()
        wrapped_child()
        clock.now += 0.5

    tracer.wrap("parent", parent)()
    stats = tracer.snapshot()
    assert stats["parent"] == (1, 5.5, 1.5)
    assert stats["child"] == (2, 4.0, 4.0)


def test_generator_is_timed_over_its_iteration_only():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def produce():
        for item in range(3):
            clock.now += 1.0          # work inside the generator
            yield item

    wrapped = tracer.wrap("gen", produce)

    def consume():
        consumed = []
        for item in wrapped():
            clock.now += 10.0         # consumer work between resumptions
            consumed.append(item)
        return consumed

    assert tracer.wrap("consumer", consume)() == [0, 1, 2]
    calls, total, self_s = tracer.snapshot()["gen"]
    assert calls == 1
    assert total == self_s == 3.0
    assert tracer.snapshot()["consumer"] == (1, 33.0, 30.0)


def test_installed_restores_every_binding():
    from repro.engine import stacks
    original_get = LSMTree.__dict__["get"]
    original_build = optimizer.build_plan
    tracer = LayerTracer()
    with tracer.installed(LAYER_SPANS):
        assert LSMTree.__dict__["get"] is not original_get
        assert stacks.build_plan is not original_build
    assert LSMTree.__dict__["get"] is original_get
    assert optimizer.build_plan is original_build
    assert stacks.build_plan is original_build


def test_same_seed_gives_identical_digest_and_counts(monkeypatch):
    monkeypatch.setattr(SqlgenSched, "QUERIES", 24)
    first = SqlgenSched(seed=3).run_pass(check=True)
    second = SqlgenSched(seed=3).run_pass(check=False)
    other = SqlgenSched(seed=4).run_pass(check=False)
    assert not first.failures
    assert first.digest == second.digest
    assert first.counts == second.counts
    assert first.counts["sim.events"] > 0
    assert other.digest != first.digest


def test_tracing_changes_no_work(monkeypatch):
    monkeypatch.setattr(HtapMix, "ROUNDS", 3)
    plain = HtapMix(seed=2).run_pass(check=True)
    tracer = LayerTracer()
    traced = HtapMix(seed=2).run_pass(tracer=tracer, check=False)
    assert not plain.failures
    assert plain.digest == traced.digest
    assert plain.counts == traced.counts
    for layer in ("relational.insert", "relational.update",
                  "relational.delete", "lsm.put", "engine.adaptive_run",
                  "core.decide", "lsm.get"):
        assert traced.layers[layer][0] > 0, layer
    assert traced.setup_layers["workloads.generate"][0] > 0


def test_htap_rounds_do_not_trend(monkeypatch):
    """Writes keep the data's shape: late rounds do the work of early
    ones."""
    monkeypatch.setattr(HtapMix, "ROUNDS", 30)
    result = HtapMix(seed=5).run_pass(check=False)
    assert not result.failures
    seeks = [round_seeks for round_seeks, _seconds in result.rounds]
    seconds = [round_seconds for _seeks, round_seconds in result.rounds]
    third = len(seeks) // 3
    early_seeks = statistics.mean(seeks[:third])
    late_seeks = statistics.mean(seeks[-third:])
    assert 0.8 <= late_seeks / early_seeks <= 1.25
    early_s = statistics.median(seconds[:third])
    late_s = statistics.median(seconds[-third:])
    assert 0.6 <= late_s / early_s <= 1.6
