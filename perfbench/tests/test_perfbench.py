"""Tests for the benchmark's own logic (no fits, no serving processes).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import load
import tracing
import workloads
from repro.serve import PredictionResult, ResultStatus

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def span(span_id, parent, name, start, end, counts=None):
    return tracing.SpanRecord(span_id, parent, name, start, end, counts)


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_nested_children_once():
    spans = [
        span(0, None, "fit", 0.0, 10.0),
        span(1, 0, "params.search", 1.0, 9.0),
        span(2, 1, "selection.dedup", 2.0, 5.0),
        span(3, 2, "transform.features", 3.0, 4.0),
        span(4, 1, "svm.fit", 6.0, 7.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 4.0, 2: 2.0, 3: 1.0, 4: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_covered_merges_overlaps_and_clips_to_parent():
    assert tracing.covered([(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert tracing.covered([], 0.0, 10.0) == 0.0


def test_recorder_parents_spans_by_thread_stack():
    clock = FakeClock()
    recorder = tracing.SpanRecorder(clock=clock)
    with recorder.span("fit"):
        clock.advance(1.0)
        with recorder.span("svm.fit"):
            clock.advance(2.0)
        clock.advance(1.0)
    spans = {s.name: s for s in recorder.drain()}
    assert spans["svm.fit"].parent == spans["fit"].span_id
    assert spans["fit"].duration == pytest.approx(4.0)
    total, layers = tracing.fit_breakdown(list(spans.values()))
    assert total == pytest.approx(4.0)
    assert layers["svm.fit"] == (pytest.approx(2.0), 1)
    assert layers["fit.unattributed"][0] == pytest.approx(2.0)
    assert recorder.drain() == []


def test_fit_breakdown_sums_to_traced_fit_and_rejects_orphans():
    spans = [
        span(0, None, "fit", 0.0, 10.0),
        span(1, 0, "grammar.induce", 1.0, 4.0),
        span(2, 0, "grammar.induce", 5.0, 6.0),
    ]
    total, layers = tracing.fit_breakdown(spans)
    assert layers["grammar.induce"] == (pytest.approx(4.0), 2)
    assert sum(seconds for seconds, _ in layers.values()) == pytest.approx(total)
    # A layer that ran outside the traced fit would leave time unassigned.
    with pytest.raises(RuntimeError, match="outside the traced fit"):
        tracing.fit_breakdown(spans + [span(3, None, "svm.fit", 11.0, 12.0)])
    with pytest.raises(RuntimeError, match="root span"):
        tracing.fit_breakdown(spans[1:])


# -- wrapper installation -------------------------------------------------------


def test_installed_wraps_and_restores_every_target():
    import repro.core.candidates as candidates
    import repro.ml.svm as svm

    original_fn, original_method = candidates.induce_motifs, svm.SVC.fit
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        assert candidates.induce_motifs is not original_fn
        assert svm.SVC.fit is not original_method
    assert candidates.induce_motifs is original_fn
    assert svm.SVC.fit is original_method


def test_missing_target_fails_loudly_and_patches_nothing():
    import repro.core.candidates as candidates

    original = candidates.induce_motifs
    targets = (
        ("grammar.induce", "repro.core.candidates", "induce_motifs"),
        ("grammar.induce", "repro.core.candidates", "induce_motifs_renamed"),
    )
    with pytest.raises(tracing.MissingTargetError, match="induce_motifs_renamed"):
        with tracing.installed(tracing.SpanRecorder(), targets):
            pass
    assert candidates.induce_motifs is original
    with pytest.raises(tracing.MissingTargetError, match="no attribute"):
        with tracing.installed(tracing.SpanRecorder(), (("x", "repro.ml.svm", "NoSuchClass.fit"),)):
            pass


def test_wrapper_records_dedup_counts():
    recorder = tracing.SpanRecorder()
    wrapped = tracing._wrap(recorder, "selection.dedup", lambda candidates, tau: candidates[:2])
    assert wrapped([1, 2, 3, 4], 0.5) == [1, 2]
    assert tracing.count_totals(recorder.drain(), "selection.dedup") == (4, 2)


# -- ratios ----------------------------------------------------------------------


def test_ratio_with_zero_base_is_zero():
    assert workloads.ratio(0, 0) == 0.0
    assert workloads.ratio(25, 3726) == pytest.approx(25 / 3726)


# -- load arithmetic -------------------------------------------------------------


class FakeService:
    """Resolves every request synchronously after ``service_s`` of fake time."""

    def __init__(self, clock: FakeClock, service_s: float, stall_at=None, stall_s=0.0, fail_every=0):
        self.clock = clock
        self.service_s = service_s
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.fail_every = fail_every
        self.sent = 0

    def submit(self, series) -> Future:
        if self.sent == self.stall_at:
            self.clock.advance(self.stall_s)
        self.clock.advance(self.service_s)
        failed = self.fail_every and (self.sent + 1) % self.fail_every == 0
        status = ResultStatus.OVERLOAD if failed else ResultStatus.OK
        self.sent += 1
        future: Future = Future()
        future.set_result(PredictionResult(request_id=f"req-{self.sent}", status=status))
        return future


def test_open_loop_times_latency_from_due_time_and_reports_lag():
    clock = FakeClock()
    service = FakeService(clock, service_s=0.001, stall_at=2, stall_s=0.050)

    def late_sleep(seconds):  # the generator always wakes 2 ms late
        clock.advance(seconds + 0.002)

    result = load.open_loop(
        service.submit, np.zeros((4, 8)), 5, rate=100.0, clock=clock, sleep=late_sleep
    )
    # Due at 0, 10, 20, 30, 40 ms. Request 0 needs no sleep (lag 0) and
    # completes after 1 ms; request 1 wakes 2 ms late (lag 2) and
    # completes at 13 ms; request 2 also wakes at 22 ms but stalls 50 ms
    # in submit, so request 3 is sent at 73 ms (lag 43) and request 4 at
    # 74 ms (lag 34): the stall is charged to the requests it delayed.
    assert result.attempted == 5 and result.failed == 0
    assert result.lags_ms == pytest.approx([0.0, 2.0, 2.0, 43.0, 34.0])
    assert result.latencies_ms == pytest.approx([1.0, 3.0, 53.0, 44.0, 35.0])
    assert load.percentile(result.latencies_ms, 50) == pytest.approx(35.0)


def test_open_loop_leaves_failed_requests_out_of_latency():
    clock = FakeClock()
    service = FakeService(clock, service_s=0.001, fail_every=2)
    result = load.open_loop(service.submit, np.zeros((1, 8)), 4, rate=100.0, clock=clock, sleep=clock.advance)
    assert result.attempted == 4 and result.failed == 2
    assert result.latencies_ms == pytest.approx([1.0, 1.0])


def test_window_rates_count_completions_per_window():
    completions = [0.1, 0.2, 0.3, 1.5, 2.1, 2.2, 2.9, 2.95, 3.5]
    # Half-second windows over 3 s; the completion at 3.5 s is outside.
    assert load.window_rates(completions, 3.0, 3) == pytest.approx([3.0, 1.0, 4.0])
    assert load.window_rates(completions, 3.0, 6) == pytest.approx([6.0, 0.0, 0.0, 2.0, 4.0, 4.0])


def test_due_time_is_independent_of_when_previous_requests_were_sent():
    assert load.due_time(5.0, 0, 300.0) == 5.0
    assert load.due_time(5.0, 300, 300.0) == pytest.approx(6.0)


def test_closed_loop_counts_failures_and_window_throughput():
    clock = FakeClock()
    service = FakeService(clock, service_s=0.25, fail_every=3)
    result = load.closed_loop(service.submit, np.zeros((2, 8)), 2.5, in_flight=4, clock=clock)
    assert result.attempted == 10
    assert result.failed == 3
    assert result.completions == pytest.approx([0.25, 0.5, 1.0, 1.25, 1.75, 2.0, 2.5])
    assert load.window_rates(result.completions, 2.5, 1) == pytest.approx([7 / 2.5])


def test_percentile_of_nothing_is_zero():
    assert load.percentile([], 99) == 0.0


# -- correctness checks ----------------------------------------------------------


def _patterns():
    return [
        SimpleNamespace(label=0, values=np.array([0.1, -0.2, 0.3])),
        SimpleNamespace(label=1, values=np.array([1.0, 2.0])),
    ]


def test_digest_rejects_a_perturbed_prediction():
    predictions = np.array([0, 1, 1, 2])
    recorded = workloads.digest(_patterns(), predictions)
    assert workloads.digest(_patterns(), predictions.copy()) == recorded
    perturbed = predictions.copy()
    perturbed[2] = 0
    assert workloads.digest(_patterns(), perturbed) != recorded


def test_digest_ignores_last_bits_but_not_pattern_changes():
    predictions = np.array([0, 1])
    recorded = workloads.digest(_patterns(), predictions)
    nudged = _patterns()
    nudged[0].values = nudged[0].values + 1e-12
    assert workloads.digest(nudged, predictions) == recorded
    moved = _patterns()
    moved[0].values = moved[0].values + 1e-3
    assert workloads.digest(moved, predictions) != recorded


def test_check_fit_counts_a_digest_mismatch_as_failed():
    clf = SimpleNamespace(patterns_=_patterns(), predict=lambda X: np.array([0, 1, 1]))
    data = SimpleNamespace(X_check=np.zeros((3, 4)))
    good = workloads.digest(_patterns(), np.array([0, 1, 1]))
    tally = workloads.Tally()
    workloads.check_fit(clf, data, good, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    workloads.check_fit(clf, data, workloads.digest(_patterns(), np.array([0, 1, 2])), tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.problems


def test_recorded_digests_cover_every_workload():
    recorded = json.loads(workloads.DIGESTS_PATH.read_text())
    assert set(recorded) == set(workloads.WORKLOADS)
    assert all(len(value) == 64 for value in recorded.values())


# -- metric names ----------------------------------------------------------------


def _fake_trace():
    spans = [span(0, None, tracing.ROOT, 0.0, 100.0)]
    for i, layer in enumerate(tracing.FIT_LAYERS):
        counts = (10, 4) if layer == "selection.dedup" else None
        spans.append(span(i + 1, 0, layer, float(i), i + 0.5, counts))
    serve_spans = [span(100, None, "compiled.transform", 0.0, 1.0), span(101, None, "svm.predict", 1.0, 1.5)]
    loads = {
        tier: workloads.TierLoad(None, {}, latencies_ms=[1.0], lags_ms=[0.1], spans=tier_spans)
        for tier, tier_spans in (("serve", serve_spans), ("shard", []))
    }
    deltas = {tier: {"counters": {}, "histograms": {}} for tier in loads}
    counters = {"candidates.generated": 2, "candidates.dropped_support": 8}
    return spans, {"counters": counters}, loads, deltas


def test_layer_metrics_match_benchmark_json():
    spans, fit_delta, loads, deltas = _fake_trace()
    metrics = workloads.layer_metrics(spans, fit_delta, 90.0, loads, deltas)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["cluster.kept_ratio"] == pytest.approx(0.2)
    assert metrics["selection.dedup_kept_ratio"] == pytest.approx(0.4)
    assert metrics["trace.overhead_s"] == pytest.approx(10.0)


def test_layer_metrics_refuse_a_silent_zero():
    spans, fit_delta, loads, deltas = _fake_trace()
    without_grammar = [s for s in spans if s.name != "grammar.induce"]
    with pytest.raises(RuntimeError, match="grammar.induce"):
        workloads.layer_metrics(without_grammar, fit_delta, 90.0, loads, deltas)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
