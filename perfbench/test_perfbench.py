"""Tests of the benchmark's own helpers.

Run with: PYTHONPATH=src python -m pytest perfbench
"""

import json
import statistics
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import record  # noqa: E402
import run  # noqa: E402
import traced_cli  # noqa: E402
from tracing import Tracer  # noqa: E402


class Clock:
    """A clock that reads the next value each call."""

    def __init__(self, *ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class TestSpans:
    def test_self_time_excludes_direct_children(self):
        # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
        tracer = Tracer(clock=Clock(0, 1, 4, 5, 6, 7, 9, 10))
        c = tracer.wrap(lambda: None, "c")
        b = tracer.wrap(lambda: c(), "b")
        a = tracer.wrap(lambda: None, "a")
        outer = tracer.wrap(lambda: (a(), b()), "outer")
        outer()
        assert [s.name for s in tracer.spans] == ["outer", "a", "b", "c"]
        assert tracer.self_times() == [3, 3, 3, 1]
        totals = tracer.totals()
        assert totals["outer"] == {"calls": 1, "s": 10, "self_s": 3}
        assert totals["b"] == {"calls": 1, "s": 4, "self_s": 3}

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer(clock=Clock(0, 1, 2, 3))

        def boom():
            raise KeyError("x")
        f = tracer.wrap(boom, "f")
        with pytest.raises(KeyError):
            f()
        g = tracer.wrap(lambda: None, "g")
        g()
        assert tracer.spans[1].parent is None


@pytest.fixture
def fake_module(monkeypatch):
    class Base:
        def inherited(self):
            return "base"

    class Report(Base):
        def to_json(self):
            return "json"

    mod = types.ModuleType("fake_layer")
    mod.work = lambda x: x + 1
    mod.Report = Report
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


class TestInstall:
    TARGETS = (
        ("fake_layer", "work", "layer.work"),
        ("fake_layer", "Report.to_json", "layer.to_json"),
        ("fake_layer", "Report.inherited", "layer.inherited"),
    )

    def test_wraps_then_restores(self, fake_module):
        work, to_json = fake_module.work, fake_module.Report.__dict__["to_json"]
        tracer = Tracer()
        with tracer.install(self.TARGETS):
            assert fake_module.work is not work
            assert fake_module.work(1) == 2
            assert fake_module.Report().to_json() == "json"
            assert fake_module.Report().inherited() == "base"
        assert fake_module.work is work
        assert fake_module.Report.__dict__["to_json"] is to_json
        assert "inherited" not in fake_module.Report.__dict__
        assert [s.name for s in tracer.spans] == ["layer.work", "layer.to_json", "layer.inherited"]

    def test_restores_when_the_block_raises(self, fake_module):
        work = fake_module.work
        with pytest.raises(RuntimeError):
            with Tracer().install(self.TARGETS):
                raise RuntimeError
        assert fake_module.work is work

    def test_absent_targets_are_recorded_not_raised(self, fake_module):
        tracer = Tracer()
        targets = self.TARGETS[:1] + (
            ("no_such_module_here", "f", "gone.module"),
            ("fake_layer", "missing", "gone.attr"),
            ("fake_layer", "Missing.method", "gone.owner"),
        )
        with tracer.install(targets):
            fake_module.work(0)
        assert tracer.absent == ["gone.module", "gone.attr", "gone.owner"]
        assert list(tracer.totals()) == ["layer.work"]


class TestStatistics:
    def test_median_and_percentile(self):
        assert statistics.median([3.0, 1.0, 2.0]) == 2.0
        assert run.percentile([1, 2, 3, 4, 5], 50) == 3
        assert run.percentile([10, 20], 25) == 12.5
        assert run.percentile([7], 90) == 7

    def test_tail_percentile_needs_ten_samples_beyond(self):
        assert run.tail_percentile(list(range(10))) is None
        q, value = run.tail_percentile(list(range(20)))
        assert q == 50 and value == 9.5
        q, value = run.tail_percentile(list(range(100)))
        assert q == 90 and value == pytest.approx(89.1)

    def test_closed_loop_keeps_the_minimum_past_the_deadline(self):
        past = run.time.perf_counter() - 1
        assert run.closed_loop(past, lambda: 1) == [1]
        assert run.closed_loop(past, lambda: 1, at_least=3) == [1, 1, 1]
        assert len(run.closed_loop(run.time.perf_counter() + 0.05, lambda: 1)) > 3

    def test_nominal_time_scales_by_the_reference_loop(self):
        nominal = run.REFERENCE_NOMINAL_S
        assert run.nominal_s(2.0, nominal, nominal) == pytest.approx(2.0)
        # A host running at half speed doubles both the pass and the loops.
        assert run.nominal_s(4.0, 2 * nominal, 2 * nominal) == pytest.approx(2.0)
        assert run.nominal_s(3.0, nominal, 2 * nominal) == pytest.approx(2.0)
        assert run.reference_s() > 0
        assert run.reference_s(0.05) > 0

    def test_describe_states_the_sample_count(self):
        assert "median of 3" in run.describe([1.0, 2.0, 3.0], "s")
        assert "too few samples" in run.describe([1.0, 2.0, 3.0], "s")
        assert "p50" in run.describe([float(i) for i in range(20)], "s")


    def test_channel_cost_is_unresolved_inside_the_run_ranges(self):
        def layers(ball, noisy):
            return {w: {"per_layer": {"kernel.ns_per_round": {
                        "median": statistics.median(v), "values": v}}}
                    for w, v in (("simulate-ball", ball), ("simulate-intercept-noisy", noisy))}
        wide = record.channel_cost(layers([4000, 5000], [4200, 5200]))
        assert wide["value"] == 200 and wide["runs"] == 4 and not wide["resolved"]
        assert record.channel_cost(layers([4000, 4010], [4500, 4520]))["resolved"]
        assert record.channel_cost({"structure": {"per_layer": {}}}) is None


class TestGates:
    def test_within_sigma(self):
        assert run.within(0.5, 0.5, 100, "x") == []
        assert run.within(0.8, 0.5, 100, "x")  # six sigma away
        assert run.within(None, 0.5, 100, "x")

    def test_exit_code_gate(self):
        assert run.expect_exit({1})(0, b"") == ["exit code 0, expected one of [1]"]
        assert run.intercept_check(0, b'{"w_overall": [17, 36]}') == []
        assert run.intercept_check(0, b'{"w_overall": [1, 9]}')


class TestTinySessions:
    """The gates and the traced path on real ksqkd output, at small round counts."""

    def test_gates_pass_and_repeats_match(self, tmp_path):
        runner = run.Runner(tmp_path)
        for build in (run.simulate_ball, run.simulate_intercept_noisy):
            wl = build(5, tmp_path, rounds=20_000)
            for _ in range(2):
                runner.run_pass(wl.full)
            runner.run_pass(wl.setup)
        assert runner.problems == []
        assert (runner.attempted, runner.failed) == (6, 0)

    def test_gate_catches_a_wrong_rate(self, tmp_path):
        runner = run.Runner(tmp_path)
        wl = run.simulate_intercept_noisy(5, tmp_path, rounds=20_000)
        wl.full[0].check = run.expect_exit({1}, run.session_check(
            20_000, run.intercept_noisy_stats(0.5)))
        runner.run_pass(wl.full)
        assert runner.failed == 1 and "w_overall" in runner.problems[0]

    def test_traced_run_reports_layers_and_restores(self, tmp_path):
        from ksqkd import protocol

        original = protocol.run_rounds
        wl = run.simulate_ball(5, tmp_path, rounds=2_000)
        code, summary = traced_cli.run(list(wl.full[0].argv))
        assert code == 0
        assert protocol.run_rounds is original
        assert summary["absent"] == []
        spans = summary["spans"]
        assert spans["ksset.min_symbol_mismatch"]["calls"] == 1
        assert spans["kernel.build_tables"]["calls"] == 1
        assert spans["qcore.exact_born"]["calls"] == 162
        assert summary["sessions"][0]["rounds"] == 2_000
        assert summary["rng_draw_s"] > 0
        assert summary["span_count"] == sum(t["calls"] for t in spans.values())
        assert 0 < summary["span_cost_s"] < 1e-4
        m = run.layer_metrics([summary], rss_growth=0)
        assert m["trace.overhead_s"][0] == summary["span_cost_s"] * summary["span_count"]
        assert m["protocol.rounds"] == (2_000, "count")
        assert m["protocol.log_bytes_per_round"][0] == 31 + 72
        assert 0 < m["kernel.rounds_s"][0] < m["protocol.run_rounds_s"][0]
        report = json.loads(Path(wl.full[0].out).read_text())
        assert m["protocol.sifted"][0] == report["rounds_sifted"]

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = set(run.layer_metrics([], 0))
        assert names == {m["name"] for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert all(units[k] == u for k, (_, u) in run.layer_metrics([], 0).items())
