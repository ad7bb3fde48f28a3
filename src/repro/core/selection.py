"""Algorithm 2 — FindDistinct: keep only discriminative patterns.

Three stages, exactly as in the paper:

1. **τ threshold** — the 30th percentile (configurable) of the pairwise
   subsequence distances *within* the refined clusters of Algorithm 1.
2. **Similarity pruning** — scan the candidates; whenever a new
   candidate lies within τ (closest-match distance, so different
   lengths are fine) of an already-kept one, keep the more frequent of
   the two.
3. **Feature selection** — transform the training set into candidate-
   distance features and run CFS; the selected features are the
   representative patterns (their number is decided by CFS).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ml.cfs import cfs_select
from ..obs.metrics import registry
from ..obs.tracer import NOOP
from ..runtime.kernel import SlidingWindowStats, prenormalize_pattern, tie_break_argmin_rows
from .patterns import PatternCandidate, RepresentativePattern
from .transform import pattern_features

__all__ = ["SelectionResult", "compute_tau", "remove_similar", "find_distinct"]

DEFAULT_TAU_PERCENTILE = 30.0


@dataclass
class SelectionResult:
    """Everything Algorithm 2 produced (kept for inspection/benches)."""

    patterns: list[RepresentativePattern]
    tau: float
    n_candidates_in: int
    n_after_dedup: int
    train_features: np.ndarray | None = field(repr=False, default=None)
    cfs_merit: float = 0.0


def compute_tau(
    candidates: list[PatternCandidate],
    percentile: float = DEFAULT_TAU_PERCENTILE,
) -> float:
    """The similarity threshold τ (paper §3.2.3).

    Pools the within-cluster pairwise distances recorded on every
    candidate and takes the requested percentile. Falls back to 0 (no
    pruning) when no cluster had two members.
    """
    if not 0.0 <= percentile <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {percentile}")
    pools = [c.within_distances for c in candidates if c.within_distances.size]
    if not pools:
        return 0.0
    return float(np.percentile(np.concatenate(pools), percentile))


def remove_similar(
    candidates: list[PatternCandidate],
    tau: float,
) -> list[PatternCandidate]:
    """Greedy de-duplication (Algorithm 2, lines 5-18).

    Candidates are compared by the closest-match distance (the shorter
    pattern slides over the longer); within τ the more frequent
    candidate wins. Scanning in descending frequency makes the result
    order-independent: a kept candidate can never lose to a later one.

    Every "is candidate ``i`` within τ of kept candidate ``j``" answer
    is computed up front into a boolean matrix, one length pair at a
    time, and the greedy scan then runs on indices only. Candidates are
    grouped by length (candidate lengths cluster tightly around the SAX
    window, so there are few groups); for each pair of group lengths
    ``La <= Lb`` one :class:`SlidingWindowStats` over all length-``Lb``
    rows with window ``La`` yields, through the exact mat-vec backend, a
    ``(ka, kb, J)`` profile block that answers both directions:

    * a shorter (or equal-length) candidate probing a kept one slides
      over it: the plain row minimum;
    * a longer candidate probing a shorter kept one has the kept pattern
      slide over it: the distance at the tie-break-low position.

    Window statistics and mat-vec dot products are per row, so each
    entry is bit for bit what a one-row kernel over that pair computes;
    for equal lengths the pattern is the later-scanned candidate, as in
    a probe of the kept rows.
    """
    ordered = sorted(candidates, key=lambda c: c.frequency, reverse=True)
    groups: dict[int, list[int]] = {}
    for index, candidate in enumerate(ordered):
        groups.setdefault(candidate.length, []).append(index)
    lengths = sorted(groups)
    # Group order: each length's candidates form one contiguous block.
    grouped = [index for length in lengths for index in groups[length]]
    bounds = np.cumsum([0] + [len(groups[length]) for length in lengths])
    rows = [np.stack([ordered[i].values for i in groups[length]]) for length in lengths]
    pres = [[prenormalize_pattern(values) for values in block] for block in rows]
    close = np.zeros((len(ordered), len(ordered)), dtype=bool)
    for b, long in enumerate(lengths):
        cols = slice(bounds[b], bounds[b + 1])
        shorter = SlidingWindowStats.over_lengths(rows[b], lengths[: b + 1])
        for a, stats in enumerate(shorter):
            rows_a = slice(bounds[a], bounds[a + 1])
            profiles = stats.batch_profiles_prenormalized(pres[a], backend="matvec")
            close[rows_a, cols] = profiles.min(axis=2) < tau
            if a < b:
                positions = tie_break_argmin_rows(profiles)
                tied = np.take_along_axis(profiles, positions[..., None], axis=2)[..., 0]
                close[cols, rows_a] = (tied < tau).T
    # Back to scan order: close[i, j] — candidate i, probing kept j, is within τ.
    position = np.empty(len(ordered), dtype=int)
    position[grouped] = np.arange(len(ordered))
    close = close[np.ix_(position, position)]
    kept = np.zeros(len(ordered), dtype=bool)
    for i in range(len(ordered)):
        kept[i] = not (close[i, :i] & kept[:i]).any()
    return [candidate for candidate, keep in zip(ordered, kept) if keep]


#: Cap on the candidate pool entering the pairwise de-duplication. The
#: paper's pool is O(#motifs) and small; tiny validation splits in the
#: parameter search can lower the γ threshold enough to blow the pool
#: up, so we keep only the most frequent candidates per class beyond
#: this limit (frequency ordering matches Algorithm 2's own tie-break).
DEFAULT_MAX_CANDIDATES = 120


def _cap_candidates(
    candidates: list[PatternCandidate], max_candidates: int
) -> list[PatternCandidate]:
    if len(candidates) <= max_candidates:
        return candidates
    # First-appearance label order: iterating a set here would make the
    # capped pool's class grouping (and every downstream frequency
    # tie-break) depend on the hash seed for string labels.
    labels = list(dict.fromkeys(c.label for c in candidates))
    per_class = max(1, max_candidates // len(labels))
    capped: list[PatternCandidate] = []
    for label in labels:
        members = [c for c in candidates if c.label == label]
        members.sort(key=lambda c: c.frequency, reverse=True)
        capped.extend(members[:per_class])
    return capped


def find_distinct(
    X: np.ndarray,
    y: np.ndarray,
    candidates: list[PatternCandidate],
    *,
    tau_percentile: float = DEFAULT_TAU_PERCENTILE,
    rotation_invariant: bool = False,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    executor=None,
    cache=None,
    selection_cache=None,
    tracer=NOOP,
    kernel_backend: str = "auto",
) -> SelectionResult:
    """Algorithm 2 end to end.

    Returns the representative patterns plus the transformed training
    matrix restricted to the selected features (handy for fitting the
    downstream classifier without recomputing distances).

    ``executor``/``cache`` are forwarded to the training-set feature
    transform (stage 3), the step that dominates Algorithm 2's cost;
    ``selection_cache`` (a
    :class:`~repro.runtime.selection_cache.SelectionCache`) memoizes
    the CFS stage's per-column discretization and SU blocks across
    calls with overlapping candidate pools. ``tracer`` records a
    ``select`` span with ``tau`` / ``dedup`` / ``transform`` / ``cfs``
    children (``dedup`` carries ``dedup.length_pairs``, its kernel
    build count); de-duplication and CFS drop counts go to the metrics
    registry (``candidates.dropped_dedup``, ``patterns.selected``).
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)

    metrics = registry()
    with tracer.span("select") as span, tracer.adopt(span):
        with tracer.span("tau"):
            tau = compute_tau(candidates, tau_percentile)
        capped = _cap_candidates(candidates, max_candidates)
        with tracer.span("dedup") as dedup_span:
            deduped = remove_similar(capped, tau)
            dedup_span.add("candidates.in", len(capped))
            dedup_span.add("candidates.kept", len(deduped))
            # remove_similar builds one SlidingWindowStats per pair of
            # distinct candidate lengths La <= Lb.
            n_lengths = len({c.length for c in capped})
            dedup_span.add("dedup.length_pairs", n_lengths * (n_lengths + 1) // 2)
        metrics.inc("candidates.dropped_dedup", len(capped) - len(deduped))

        features = pattern_features(
            X,
            deduped,
            rotation_invariant=rotation_invariant,
            executor=executor,
            cache=cache,
            tracer=tracer,
            kernel_backend=kernel_backend,
        )
        with tracer.span("cfs") as cfs_span:
            result = cfs_select(features, y, cache=selection_cache)
            cfs_span.add("patterns.selected", len(result.selected))
        metrics.inc("patterns.selected", len(result.selected))
    patterns = [
        RepresentativePattern(
            values=deduped[idx].values,
            label=deduped[idx].label,
            feature_index=pos,
            candidate=deduped[idx],
        )
        for pos, idx in enumerate(result.selected)
    ]
    return SelectionResult(
        patterns=patterns,
        tau=tau,
        n_candidates_in=len(candidates),
        n_after_dedup=len(deduped),
        train_features=features[:, result.selected],
        cfs_merit=result.merit,
    )
