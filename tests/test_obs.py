"""Observability layer: tracer, metrics registry, emitters, equivalence.

Three contracts under test:

1. spans nest correctly (per-thread stacks plus the adopted ambient
   parent for worker threads) and the emitters render them faithfully;
2. the registry is exactly thread-safe — concurrent increments are
   never lost;
3. tracing is an observer only — a traced ``fit``/``transform`` is
   bitwise identical to an untraced one, and the disabled tracer adds
   no measurable work.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import RPMClassifier, SaxParams
from repro.data import cbf
from repro.obs import (
    NOOP,
    MetricsRegistry,
    NullTracer,
    Tracer,
    format_tree,
    registry,
    resolve_tracer,
    scoped_registry,
    span_records,
    write_jsonl,
)
from repro.runtime import ParallelExecutor

FIXED_PARAMS = SaxParams(window_size=24, paa_size=5, alphabet_size=4)


@pytest.fixture(scope="module")
def dataset():
    return cbf(n_train_per_class=8, n_test_per_class=10, length=96, seed=7)


class TestTracer:
    def test_nesting_same_thread(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [s.name for s in outer.children] == ["inner"]
        assert inner.parent is outer
        assert outer.duration >= inner.duration >= 0.0

    def test_counters_and_meta(self):
        tracer = Tracer()
        with tracer.span("stage", label="A") as span:
            span.add("things", 2)
            span.add("things", 3)
            tracer.count("via_tracer")
        assert span.counters == {"things": 5, "via_tracer": 1}
        assert span.meta["label"] == "A"

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]
        assert tracer.total_duration() == pytest.approx(
            sum(s.duration for s in tracer.roots)
        )

    def test_exception_annotates_and_closes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.roots[0].meta["error"] == "RuntimeError"
        assert tracer.current() is None

    def test_adopt_gives_worker_threads_a_parent(self):
        tracer = Tracer()

        def worker():
            with tracer.span("child"):
                time.sleep(0.001)

        with tracer.span("parent") as parent, tracer.adopt(parent):
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(tracer.roots) == 1
        assert len(parent.children) == 4
        assert all(c.parent is parent for c in parent.children)

    def test_adopt_restores_previous_ambient(self):
        tracer = Tracer()
        with tracer.span("a") as a, tracer.adopt(a):
            with tracer.span("b") as b, tracer.adopt(b):
                pass
            # Ambient must be back to `a`, not leaked as `b`.
            assert tracer._ambient is a
        assert tracer._ambient is None

    def test_resolve_tracer(self):
        assert resolve_tracer(None) is NOOP
        assert resolve_tracer(False) is NOOP
        assert isinstance(resolve_tracer(True), Tracer)
        tracer = Tracer()
        assert resolve_tracer(tracer) is tracer
        with pytest.raises(TypeError):
            resolve_tracer("yes")


class TestNullTracer:
    def test_records_nothing(self):
        with NOOP.span("anything", key="value") as span:
            span.add("counter")
            span.annotate(more="meta")
        assert NOOP.roots == ()
        assert NOOP.current() is None
        assert NOOP.total_duration() == 0.0

    def test_span_returns_shared_handle(self):
        # Zero-cost contract: the disabled path allocates nothing.
        assert NOOP.span("a") is NOOP.span("b")

    def test_picklable(self):
        import pickle

        clone = pickle.loads(pickle.dumps(NOOP))
        assert isinstance(clone, NullTracer)

    def test_noop_overhead_is_negligible(self):
        """100k disabled spans must cost well under a second.

        The bound is intentionally loose (CI machines vary wildly); the
        point is catching an accidental allocation or lock on the
        disabled path, which would push this toward seconds.
        """
        t0 = time.perf_counter()
        for _ in range(100_000):
            with NOOP.span("x"):
                pass
        assert time.perf_counter() - t0 < 1.0


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        reg.set_gauge("g", 2.5)
        for v in (1.0, 3.0, 2.0):
            reg.observe("h", v)
        assert reg.counter_value("c") == 5
        assert reg.gauge_value("g") == 2.5
        hist = reg.histogram("h")
        assert hist.count == 3
        assert hist.min == 1.0 and hist.max == 3.0
        assert hist.mean == pytest.approx(2.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["histograms"]["h"]["count"] == 3

    def test_missing_names_read_as_zero(self):
        reg = MetricsRegistry()
        assert reg.counter_value("nope") == 0
        assert reg.gauge_value("nope") == 0.0
        assert reg.histogram("nope") is None
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.reset()
        assert reg.counter_value("c") == 0

    def test_thread_safety_under_thread_backend(self):
        """Concurrent increments from a thread pool are never lost."""
        reg = MetricsRegistry()
        per_item = 50

        def work(i):
            for _ in range(per_item):
                reg.inc("hits")
                reg.observe("lat", float(i))
            return i

        with ParallelExecutor(4, "thread", chunk_size=1) as executor:
            executor.map(work, range(40))
        assert reg.counter_value("hits") == 40 * per_item
        assert reg.histogram("lat").count == 40 * per_item

    def test_global_registry_is_shared(self):
        assert registry() is registry()

    def test_scoped_registry_keeps_global_state_clean(self):
        """Tests that hit the process-global registry scope it instead
        of mutating shared state other tests might read."""
        outer = registry()
        before = outer.counter_value("obs.test_scoped")
        with scoped_registry():
            registry().inc("obs.test_scoped", 9)
            assert registry().counter_value("obs.test_scoped") == 9
        assert registry() is outer
        assert outer.counter_value("obs.test_scoped") == before


class TestEmitters:
    def _traced(self) -> Tracer:
        tracer = Tracer()
        with tracer.span("fit") as fit:
            fit.add("n", 3)
            for _ in range(3):
                with tracer.span("evaluate") as ev:
                    ev.add("hits", 1)
        return tracer

    def test_format_tree_aggregates_siblings(self):
        text = format_tree(self._traced())
        assert "fit" in text
        # Three same-named children fold into one ×3 line.
        assert "evaluate ×3" in text
        assert "hits=3" in text

    def test_format_tree_empty(self):
        assert format_tree(Tracer()) == "(no spans recorded)"

    @staticmethod
    def _parent_with_child(parent_s: float, child_s: float) -> Tracer:
        tracer = Tracer()
        with tracer.span("evaluate"):
            with tracer.span("mine"):
                pass
        root = tracer.roots[0]
        root.duration = parent_s
        root.children[0].duration = child_s
        return tracer

    def test_format_tree_shows_unattributed_gap(self):
        lines = format_tree(self._parent_with_child(2.0, 1.5)).splitlines()
        assert len(lines) == 3
        assert lines[2].split() == ["(unattributed)", "0.500s"]
        # One level below its parent, beside the named children.
        assert lines[2].startswith("  (") and lines[1].startswith("  mine")

    def test_format_tree_omits_gap_within_five_percent(self):
        text = format_tree(self._parent_with_child(2.0, 1.95))
        assert "(unattributed)" not in text
        # Leaves carry no gap line: all of their time is their own.
        leaf = Tracer()
        with leaf.span("fit"):
            pass
        leaf.roots[0].duration = 2.0
        assert "(unattributed)" not in format_tree(leaf)

    def test_span_records_depth_and_parent(self):
        records = list(span_records(self._traced()))
        assert records[0]["name"] == "fit"
        assert records[0]["depth"] == 0 and records[0]["parent"] is None
        assert all(r["depth"] == 1 and r["parent"] == "fit" for r in records[1:])
        assert len(records) == 4

    def test_write_jsonl_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("cache.hits", 7)
        reg.observe("executor.chunk_seconds", 0.25)
        path = write_jsonl(
            tmp_path / "m.jsonl",
            tracer=self._traced(),
            metrics=reg,
            meta={"run": "test"},
        )
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {line["type"] for line in lines}
        assert kinds == {"meta", "span", "counter", "histogram"}
        counters = {l["name"]: l["value"] for l in lines if l["type"] == "counter"}
        assert counters["cache.hits"] == 7

    def test_write_jsonl_empty_inputs_produce_valid_document(self, tmp_path):
        """No tracer + empty registry still yields a self-describing file."""
        path = write_jsonl(tmp_path / "m.jsonl", tracer=None, metrics=MetricsRegistry())
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records == [{"type": "meta", "spans": 0, "instruments": 0}]

    def test_write_jsonl_header_counts_and_meta(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("c")
        path = write_jsonl(
            tmp_path / "m.jsonl", tracer=self._traced(), metrics=reg, meta={"run": "x"}
        )
        header = json.loads(path.read_text().splitlines()[0])
        assert header["type"] == "meta"
        assert header["spans"] == 4 and header["instruments"] == 1
        assert header["run"] == "x"


class TestPipelineTracing:
    def test_fit_produces_expected_span_tree(self, dataset):
        tracer = Tracer()
        clf = RPMClassifier(sax_params=FIXED_PARAMS, seed=0, trace=tracer)
        clf.fit(dataset.X_train, dataset.y_train)
        clf.transform(dataset.X_test)
        names = {span.name for root in tracer.roots for span, _ in root.walk()}
        for expected in (
            "fit",
            "mine",
            "class",
            "discretize",
            "grammar",
            "refine",
            "bisect",
            "select",
            "tau",
            "dedup",
            "transform",
            "cfs",
            "classifier",
        ):
            assert expected in names, f"missing span {expected!r}"
        # Every span measured something.
        fit_root = tracer.roots[0]
        assert fit_root.name == "fit"
        assert fit_root.duration > 0

    def test_parameter_search_attributes_crossval(self, dataset):
        tracer = Tracer()
        clf = RPMClassifier(
            param_search="direct", direct_budget=3, n_splits=1, seed=0, trace=tracer
        )
        clf.fit(dataset.X_train, dataset.y_train)
        evaluations = [
            span for root in tracer.roots for span, _ in root.walk() if span.name == "evaluate"
        ]
        children = [[child.name for child in e.children] for e in evaluations]
        assert any("crossval" in names for names in children)
        for names in children:
            # Each split here that reaches selection has enough validation
            # rows to be scored, inside one crossval span.
            assert names.count("crossval") == names.count("select")

    def test_traced_fit_is_bitwise_identical(self, dataset):
        """Tracing must not perturb a single output bit."""

        def run(trace):
            clf = RPMClassifier(
                sax_params=FIXED_PARAMS, seed=0, trace=trace,
            )
            clf.fit(dataset.X_train, dataset.y_train)
            return clf.selection_.train_features, clf.transform(dataset.X_test)

        plain_features, plain_transform = run(None)
        traced_features, traced_transform = run(True)
        assert np.array_equal(plain_features, traced_features)
        assert np.array_equal(plain_transform, traced_transform)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_traced_parallel_matches_untraced_serial(self, dataset, backend):
        """The PR 1 equivalence guarantee holds with tracing enabled."""

        def run(n_jobs, backend, trace):
            clf = RPMClassifier(
                sax_params=FIXED_PARAMS,
                seed=0,
                n_jobs=n_jobs,
                parallel_backend=backend,
                trace=trace,
            )
            clf.fit(dataset.X_train, dataset.y_train)
            return clf.transform(dataset.X_test), clf.predict(dataset.X_test)

        serial_transform, serial_preds = run(1, "serial", None)
        traced_transform, traced_preds = run(3, backend, True)
        assert np.array_equal(serial_transform, traced_transform)
        assert np.array_equal(serial_preds, traced_preds)

    def test_executor_metrics_aggregate_across_backends(self):
        for backend in ("thread", "process"):
            reg = MetricsRegistry()
            with ParallelExecutor(2, backend, metrics=reg) as executor:
                assert executor.map(_double, range(10)) == [2 * i for i in range(10)]
            assert reg.counter_value("executor.items") == 10
            hist = reg.histogram("executor.chunk_seconds")
            assert hist is not None
            assert hist.count == reg.counter_value("executor.chunks") > 0

    def test_executor_without_metrics_records_nothing(self):
        with ParallelExecutor(2, "thread") as executor:
            executor.map(_double, range(10))
        # The shared registry gains nothing from an uninstrumented map.
        assert executor.metrics is None

    def test_cache_counters_reach_registry(self, dataset):
        from repro.runtime.cache import WindowStatsCache

        reg = MetricsRegistry()
        cache = WindowStatsCache(4, metrics=reg)
        X = dataset.X_train
        cache.stats(X, 16)
        cache.stats(X, 16)
        cache.stats(X, 24)
        assert reg.counter_value("cache.hits") == cache.hits == 1
        assert reg.counter_value("cache.misses") == cache.misses == 2


def _double(x):
    return 2 * x
