"""The benchmark workloads and how one run of each is measured.

Every workload is the same user journey with a different emphasis:
generate the data, fit an :class:`repro.RPMClassifier` (the parameter
search included), check its output, predict the test split, then serve
the fitted model through the single-process tier and a one-shard
sharded tier. See ``README.md`` for why each workload was chosen and
which layer metric should move which end-to-end metric.

The training set is always the dataset's registry default, so every
run of a workload fits the same inputs and its output can be checked
against the digest recorded in ``digests.json``. The run seed draws the
test split and the served traffic from the same generator.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import inspect
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import load
import tracing
from repro import RPMClassifier
from repro.data.synthetic import cbf, italy_power_sim
from repro.obs import MetricsRegistry, registry
from repro.serve import (
    CompiledModel,
    PredictionService,
    ServeConfig,
    ShardedPredictionService,
)

DIGESTS_PATH = Path(__file__).with_name("digests.json")
#: Pattern values are rounded before hashing so that the digest pins
#: the selected patterns, not the last bits of their arithmetic.
DIGEST_DECIMALS = 8

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

SERVE_CONFIG = ServeConfig(max_batch=32, max_delay_ms=2.0)
#: Fits per run at least, so that ``peak_rss_mb`` always covers a refit.
MIN_FITS = 2
#: Share of ``--seconds`` spent fitting; the serving tiers share the rest.
FIT_SHARE = 0.8
#: The closed loop's share of each tier's serving time; the open loop
#: gets the rest.
CLOSED_SHARE = 0.25
#: Closed-loop throughput is counted in windows of this length.
WINDOW_S = 0.25
CLOSED_LOOP_IN_FLIGHT = 64
OPEN_LOOP_RATE = 300.0
#: Unmeasured closed-loop traffic before each tier's phases.
WARMUP_S = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    generator: object
    fit_kwargs: dict

    @property
    def default_seed(self) -> int:
        return inspect.signature(self.generator).parameters["seed"].default


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fit_cbf", cbf, dict(direct_budget=40, n_splits=3, seed=0)),
        Workload("fit_grid_italypower", italy_power_sim, dict(param_search="grid", n_splits=3, seed=0)),
    )
}


@dataclass
class Tally:
    """Operations attempted and failed over a run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and problem:
            self.problems.append(problem)


# -- correctness -------------------------------------------------------------


def digest(patterns, predictions) -> str:
    """Fingerprint of a fitted model's patterns and its predictions."""
    h = hashlib.sha256()
    for pattern in patterns:
        values = np.round(np.asarray(pattern.values, dtype=float), DIGEST_DECIMALS) + 0.0
        h.update(f"{pattern.label}:{values.size};".encode())
        h.update(values.tobytes())
    h.update(",".join(str(label) for label in np.asarray(predictions).tolist()).encode())
    return h.hexdigest()


def recorded_digest(name: str) -> str:
    return json.loads(DIGESTS_PATH.read_text())[name]


def ratio(part: float, base: float) -> float:
    """``part / base``; 0 when nothing was counted (the base is reported beside it)."""
    return part / base if base else 0.0


# -- data and fitting ----------------------------------------------------------


@dataclass
class Data:
    X_train: np.ndarray
    y_train: np.ndarray
    #: The default seed's test split: predictions on it enter the digest.
    X_check: np.ndarray
    #: The run seed's test split: accuracy and served traffic.
    X_test: np.ndarray
    y_test: np.ndarray


def make_data(workload: Workload, seed: int) -> Data:
    default = workload.generator(seed=workload.default_seed)
    drawn = default if seed == workload.default_seed else workload.generator(seed=seed)
    return Data(default.X_train, default.y_train, default.X_test, drawn.X_test, drawn.y_test)


def fit_once(workload: Workload, data: Data, trace=None) -> tuple[RPMClassifier, float]:
    clf = RPMClassifier(n_jobs=1, **workload.fit_kwargs)
    start = time.perf_counter()
    if trace is None:
        clf.fit(data.X_train, data.y_train)
    else:
        with trace.span(tracing.ROOT):
            clf.fit(data.X_train, data.y_train)
    return clf, time.perf_counter() - start


def check_fit(clf: RPMClassifier, data: Data, expected: str, tally: Tally) -> str:
    actual = digest(clf.patterns_, clf.predict(data.X_check))
    tally.add(1, int(actual != expected), f"digest {actual} != recorded {expected}")
    return actual


# -- serving -------------------------------------------------------------------


@contextlib.contextmanager
def serving_stack(clf: RPMClassifier):
    """Compiled model plus both started tiers, torn down on exit.

    Each tier publishes into its own metrics registry, so its batch-size
    and queue-wait histograms hold its own traffic only.
    """
    with contextlib.ExitStack() as stack:
        model = stack.enter_context(CompiledModel.from_classifier(clf))
        single = stack.enter_context(
            PredictionService(model, config=SERVE_CONFIG, metrics=MetricsRegistry())
        )
        sharded = stack.enter_context(
            ShardedPredictionService(
                model, config=SERVE_CONFIG.replace(n_shards=1), metrics=MetricsRegistry()
            )
        )
        yield {"serve": single, "shard": sharded}


def check_tier(service, clf_labels: np.ndarray, X: np.ndarray, tally: Tally, tier: str) -> None:
    """Every tier must return ``clf.predict``'s labels, bit for bit.

    Rows go in chunks no larger than the tier's queue cap: the sharded
    tier sheds whatever exceeds ``max_queue_per_shard`` as OVERLOAD.
    """
    results = []
    chunk = SERVE_CONFIG.max_queue_per_shard
    for lo in range(0, len(X), chunk):
        results.extend(service.predict_many(X[lo : lo + chunk], wait_s=load.DRAIN_TIMEOUT_S))
    bad = sum(
        1 for result, want in zip(results, clf_labels) if not result.ok or result.label != want
    )
    tally.add(len(X), bad, f"{tier}: {bad} of {len(X)} rows differ from clf.predict")


@dataclass
class TierLoad:
    """One tier's measured load."""

    service: object
    #: The tier's metrics after warm-up; deltas are taken against it.
    baseline: dict
    #: Closed-loop requests per second in each window.
    rates: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    #: Spans recorded while the tier was loaded (traced runs only).
    spans: list = field(default_factory=list)


def _prepare_tiers(clf, tiers: dict, data: Data, tally: Tally) -> dict[str, TierLoad]:
    """Check each tier against clf.predict, then warm it up."""
    labels = clf.predict(data.X_test)
    loads = {}
    for tier, service in tiers.items():
        check_tier(service, labels, data.X_test, tally, tier)
        warm = load.closed_loop(service.submit, data.X_test, WARMUP_S, in_flight=CLOSED_LOOP_IN_FLIGHT)
        tally.add(warm.attempted, warm.failed, f"{tier}: {warm.failed} non-OK results")
        loads[tier] = TierLoad(service, service.metrics.snapshot())
    return loads


def _serve(loads: dict[str, TierLoad], X: np.ndarray, seconds: float, tally: Tally, recorder=None) -> None:
    """Load each tier in turn for its share of ``seconds``: a closed loop, then an open loop."""
    tier_s = seconds / len(loads)
    closed_s = tier_s * CLOSED_SHARE
    count = int(tier_s * (1 - CLOSED_SHARE) * OPEN_LOOP_RATE)
    for tier, tier_load in loads.items():
        submit = tier_load.service.submit
        if recorder is not None:
            recorder.drain()
        gc.collect()
        closed = load.closed_loop(submit, X, closed_s, in_flight=CLOSED_LOOP_IN_FLIGHT)
        gc.collect()
        opened = load.open_loop(submit, X, count, rate=OPEN_LOOP_RATE)
        tier_load.rates = load.window_rates(closed.completions, closed_s, max(1, round(closed_s / WINDOW_S)))
        tier_load.latencies_ms = opened.latencies_ms
        tier_load.lags_ms = opened.lags_ms
        if recorder is not None:
            tier_load.spans = recorder.drain()
        for phase in (closed, opened):
            tally.add(phase.attempted, phase.failed, f"{tier}: {phase.failed} non-OK results")


def _histogram(delta: dict, name: str) -> dict:
    return delta["histograms"].get(name, {"count": 0, "mean": 0.0, "p99": 0.0})


# -- one run -------------------------------------------------------------------


def _fits(workload: Workload, data: Data, budget: float, at_least: int, expected: str, tally: Tally):
    """Fit ``at_least`` times, then again while the next fit is expected to end inside ``budget``."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < at_least or time.perf_counter() - start + times[-1] <= budget:
        clf, seconds = fit_once(workload, data)
        times.append(seconds)
        fit_digest = check_fit(clf, data, expected, tally)
    return clf, times, fit_digest


def _setup_data(workload: Workload, seed: int) -> tuple[Data, float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        data = make_data(workload, seed)
        times.append(time.perf_counter() - start)
    return data, statistics.median(times)


def _bring_up(clf: RPMClassifier, stack: contextlib.ExitStack) -> tuple[dict, list[float]]:
    """Start the serving stack SETUP_REPEATS times; keep the last one.

    Returns the tiers and each start's seconds.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        if rep < SETUP_REPEATS - 1:
            with serving_stack(clf):
                times.append(time.perf_counter() - start)
        else:
            tiers = stack.enter_context(serving_stack(clf))
            times.append(time.perf_counter() - start)
    return tiers, times


def run(name: str, seed: int | None, seconds: float, trace: bool) -> tuple[dict, Tally, dict]:
    """One benchmark run: (metrics, tally, context for the report).

    The run fits for ``FIT_SHARE`` of ``seconds`` and then loads each
    tier in turn for half of the rest. The serving stack starts only
    after the last fit, so its threads and its worker process take no
    time from a fit. A traced run fits twice instead: untraced (the
    overhead baseline), then traced.
    """
    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    expected = recorded_digest(name)
    tally = Tally()
    data, data_setup_s = _setup_data(workload, seed)
    recorder = tracing.SpanRecorder() if trace else None
    context = {"workload": name, "seed": seed, "train_seed": workload.default_seed}

    fit_budget, at_least = (0.0, 1) if trace else (FIT_SHARE * seconds, MIN_FITS)
    clf, fit_times, context["digest"] = _fits(workload, data, fit_budget, at_least, expected, tally)
    accuracy = float(np.mean(clf.predict(data.X_test) == data.y_test))
    with contextlib.ExitStack() as stack:
        if trace:
            stack.enter_context(tracing.installed(recorder))
            before = registry().snapshot()
            traced, _ = fit_once(workload, data, trace=recorder)
            fit_delta = registry().delta(before)
            fit_spans = recorder.drain()
            check_fit(traced, data, expected, tally)
        tiers, bring_up_times = _bring_up(clf, stack)
        loads = _prepare_tiers(clf, tiers, data, tally)
        _serve(loads, data.X_test, (1 - FIT_SHARE) * seconds, tally, recorder)
        deltas = {tier: t.service.metrics.delta(t.baseline) for tier, t in loads.items()}
    context["fit_times_s"] = [round(t, 4) for t in fit_times]
    if trace:
        metrics = layer_metrics(fit_spans, fit_delta, fit_times[0], loads, deltas)
        return metrics, tally, context
    setup_times = [data_setup_s + t for t in bring_up_times]
    context["setup_times_s"] = [round(t, 4) for t in setup_times]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "fit_s": statistics.median(fit_times),
        "test_accuracy": accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Serving figures are too unsteady on a shared host to bound (see
    # README.md); they are recorded with the run.
    for tier, tier_load in loads.items():
        context[f"{tier}_rps"] = round(statistics.median(tier_load.rates), 1)
        context[f"{tier}_p50_ms"] = round(load.percentile(tier_load.latencies_ms, 50), 3)
    return metrics, tally, context


def layer_metrics(fit_spans, fit_delta: dict, untraced_s: float, loads: dict, deltas: dict) -> dict:
    """Per-layer metrics of one traced run (see README.md for each)."""
    traced_s, layers = tracing.fit_breakdown(fit_spans)
    silent = [layer for layer in tracing.FIT_LAYERS if layers[layer][1] == 0]
    if silent:
        raise RuntimeError(f"traced fit recorded no calls for {silent}: wrapper target moved?")
    metrics: dict = {}
    for layer, (seconds, calls) in layers.items():
        metrics[f"{layer}_s"] = seconds
        if layer != "fit.unattributed":
            metrics[f"{layer}_calls"] = calls
    counters = fit_delta["counters"]
    generated = counters.get("candidates.generated", 0)
    refined = generated + counters.get("candidates.dropped_support", 0)
    metrics["grammar.rules"] = counters.get("grammar.rules", 0)
    metrics["cluster.motifs"] = refined
    metrics["cluster.kept_ratio"] = ratio(generated, refined)
    dedup_in, dedup_kept = tracing.count_totals(fit_spans, "selection.dedup")
    metrics["selection.dedup_kept_ratio"] = ratio(dedup_kept, dedup_in)
    metrics["cfs.su_pairs"] = counters.get("cfs.su_pairs", 0)
    metrics["params.evaluations"] = counters.get("direct.evaluations", 0)
    for cache, prefix in (
        ("discretize_cache", "discretize.cache"),
        ("stats_cache", "cache"),
        ("selection_cache", "select.cache"),
    ):
        hits = counters.get(f"{prefix}.hits", 0)
        lookups = hits + counters.get(f"{prefix}.misses", 0)
        metrics[f"runtime.{cache}.hit_ratio"] = ratio(hits, lookups)
        metrics[f"runtime.{cache}.lookups"] = lookups
    metrics["fit.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s

    # Only the single-process tier runs the model in this process; the
    # shard worker is another process the wrappers do not reach.
    serve_layers = tracing.layer_totals(loads["serve"].spans)
    for metric, span_name in (("serve.transform", "compiled.transform"), ("serve.classify", "svm.predict")):
        seconds, calls = serve_layers.get(span_name, (0.0, 0))
        if calls == 0:
            raise RuntimeError(f"serving recorded no {span_name} calls: wrapper target moved?")
        metrics[f"{metric}_s"] = seconds
        metrics[f"{metric}_calls"] = calls
    for tier, tier_load in loads.items():
        metrics[f"{tier}.batch_size_mean"] = _histogram(deltas[tier], "serve.batch_size")["mean"]
        metrics[f"{tier}.queue_wait_p99_ms"] = (
            _histogram(deltas[tier], "serve.queue_wait_seconds")["p99"] * 1000.0
        )
        metrics[f"{tier}.latency_p99_ms"] = load.percentile(tier_load.latencies_ms, 99)
        metrics[f"{tier}.gen_lag_p99_ms"] = load.percentile(tier_load.lags_ms, 99)
    return metrics
