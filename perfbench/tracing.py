"""Per-layer timing taken from outside the program.

The benchmark wraps the public functions of each pipeline layer at the
call sites the pipeline uses (``repro.core.candidates.bisect_refine``,
``repro.ml.svm.SVC.fit``, ...) and records one span per call: name,
parent, start and end. A layer's metric is its *self time*, the span's
duration minus the part of it covered by child spans, so the layer
times of one fit add up to the fit's wall time exactly.

Nothing inside ``src/`` is changed; the wrappers are installed for the
traced run only and removed afterwards. A wrapper whose target is
missing or renamed raises :class:`MissingTargetError` at install time,
so a refactor that moves a layer can never report a silent zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass

#: (layer metric prefix, module path, attribute path). One metric may be
#: fed by several call sites (the feature transform is called from both
#: selection and the parameter search).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sax.discretize", "repro.core.candidates", "discretize_class"),
    ("grammar.induce", "repro.core.candidates", "induce_motifs"),
    ("cluster.align", "repro.core.candidates", "align_subsequences"),
    ("cluster.bisect", "repro.core.candidates", "bisect_refine"),
    ("cluster.prototype", "repro.core.candidates", "centroid_of"),
    ("selection.tau", "repro.core.selection", "compute_tau"),
    ("selection.dedup", "repro.core.selection", "remove_similar"),
    ("cfs.select", "repro.core.selection", "cfs_select"),
    ("transform.features", "repro.core.selection", "pattern_features"),
    ("transform.features", "repro.core.params", "pattern_features"),
    ("crossval.kfold", "repro.core.params", "kfold_predictions"),
    ("params.search", "repro.core.params", "ParamSelector.select_direct"),
    ("params.search", "repro.core.params", "ParamSelector.select_grid"),
    ("svm.fit", "repro.ml.svm", "SVC.fit"),
    ("svm.predict", "repro.ml.svm", "SVC.predict"),
    ("compiled.transform", "repro.serve.compiled", "CompiledModel.transform"),
)

#: Work counts taken at a call boundary: span name -> fn(args, result)
#: returning (items in, items out).
COUNTS = {
    "selection.dedup": lambda args, kept: (len(args[0]), len(kept)),
}

#: Name of the span the benchmark opens around one ``RPMClassifier.fit``.
ROOT = "fit"

#: Layer prefixes whose time is part of a fit, in report order.
FIT_LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(name for name, _, _ in TARGETS if name != "compiled.transform")
)


class MissingTargetError(RuntimeError):
    """A wrapper target no longer exists where the benchmark expects it."""


@dataclass
class SpanRecord:
    """One finished span."""

    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    #: (items in, items out) for spans named in :data:`COUNTS`.
    counts: tuple[int, int] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; parents come from a per-thread stack."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._spans: list[SpanRecord] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        return _SpanContext(self, name)

    def _open(self, name: str) -> tuple[int, int | None, float]:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, self._clock()

    def _close(self, span_id: int, parent: int | None, name: str, start: float, counts=None) -> None:
        end = self._clock()
        self._stack().pop()
        record = SpanRecord(span_id, parent, name, start, end, counts)
        with self._lock:
            self._spans.append(record)

    def drain(self) -> list[SpanRecord]:
        """Every span finished since the last drain, then forget them."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans


class _SpanContext:
    __slots__ = ("_recorder", "_name", "_state", "counts")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self.counts = None

    def __enter__(self):
        self._state = self._recorder._open(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        span_id, parent, start = self._state
        self._recorder._close(span_id, parent, self._name, start, self.counts)


def _resolve(module_path: str, attr_path: str):
    """(owner object, attribute name, current value) of one target."""
    try:
        owner = importlib.import_module(module_path)
    except ImportError as exc:
        raise MissingTargetError(f"cannot import {module_path}: {exc}") from exc
    *owners, attr = attr_path.split(".")
    for part in owners:
        if not hasattr(owner, part):
            raise MissingTargetError(f"{module_path}.{attr_path}: no attribute {part!r}")
        owner = getattr(owner, part)
    # vars() rather than getattr: a method inherited from a base class is
    # not this class's call site, and patching it here would shadow it.
    namespace = vars(owner)
    if attr not in namespace or not callable(namespace[attr]):
        raise MissingTargetError(f"{module_path}.{attr_path} is missing or not callable")
    return owner, attr, namespace[attr]


def _wrap(recorder: SpanRecorder, name: str, fn):
    count = COUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if count is not None:
                span.counts = count(args, result)
            return result

    return wrapper


@contextlib.contextmanager
def installed(recorder: SpanRecorder, targets=TARGETS):
    """Wrap every target for the duration of the block.

    Resolves all targets before patching any, so a missing one leaves
    the program untouched; the originals are restored on exit.
    """
    resolved = [(name, *_resolve(module, attr)) for name, module, attr in targets]
    saved = []
    try:
        for name, owner, attr, original in resolved:
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[SpanRecord]) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }


def count_totals(spans: list[SpanRecord], name: str) -> tuple[int, int]:
    """Summed (items in, items out) over the spans called ``name``."""
    pairs = [span.counts for span in spans if span.name == name and span.counts]
    return sum(p[0] for p in pairs), sum(p[1] for p in pairs)


def layer_totals(spans: list[SpanRecord]) -> dict[str, tuple[float, int]]:
    """``{span name: (summed self time, calls)}`` over ``spans``."""
    own = self_times(spans)
    totals: dict[str, tuple[float, int]] = {}
    for span in spans:
        seconds, calls = totals.get(span.name, (0.0, 0))
        totals[span.name] = (seconds + own[span.span_id], calls + 1)
    return totals


def fit_breakdown(spans: list[SpanRecord]) -> tuple[float, dict[str, tuple[float, int]]]:
    """Traced fit wall time and per-layer ``(self seconds, calls)``.

    ``spans`` must hold exactly one :data:`ROOT` span, and every other
    span must descend from it: a layer running outside the root (on a
    thread the recorder cannot parent) would leave fit time unassigned,
    so it raises instead. The root's own self time is returned under
    ``"fit.unattributed"``; all entries sum to the fit wall time.
    """
    roots = [span for span in spans if span.name == ROOT]
    if len(roots) != 1:
        raise RuntimeError(f"expected one {ROOT!r} root span, found {len(roots)}")
    root = roots[0]
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        node = span
        while node.parent is not None:
            node = by_id[node.parent]
        if node is not root:
            raise RuntimeError(f"span {span.name!r} ran outside the traced fit")
    totals = layer_totals(spans)
    unattributed, _ = totals.pop(ROOT)
    breakdown = {layer: totals.get(layer, (0.0, 0)) for layer in FIT_LAYERS}
    unknown = set(totals) - set(breakdown)
    if unknown:
        raise RuntimeError(f"spans with no fit layer: {sorted(unknown)}")
    breakdown["fit.unattributed"] = (unattributed, 1)
    attributed = sum(seconds for seconds, _ in breakdown.values())
    if abs(attributed - root.duration) > 1e-6 * max(1.0, root.duration):
        raise RuntimeError(
            f"layer self times sum to {attributed:.6f}s, traced fit took {root.duration:.6f}s"
        )
    return root.duration, breakdown
