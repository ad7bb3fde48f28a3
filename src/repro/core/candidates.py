"""Algorithm 1 — FindCandidates: class-specific motif discovery.

For every class: concatenate its training instances, discretize with
SAX (junction-aware), induce a Sequitur grammar, map every rule back to
its variable-length raw subsequences, refine each rule's subsequence
group with iterative bisecting complete-linkage clustering, drop
clusters below the γ support threshold, and emit each surviving
cluster's centroid (or medoid) as a candidate pattern.

Bisection only ever shrinks a group, so a rule whose occurrences
already cover fewer than ``γ·|class|`` instances (or occurrences, in
``'occurrences'`` mode) is skipped before alignment: none of its
clusters could survive, and τ is built from survivors alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.refine import (
    RefinedCluster,
    align_subsequences,
    bisect_refine,
    centroid_of,
    medoid_of,
)
from ..grammar.inference import RuleMotif, discretize_class, induce_motifs
from ..obs.metrics import registry
from ..obs.tracer import NOOP
from ..sax.discretize import SaxParams
from .patterns import PatternCandidate

__all__ = ["find_class_candidates", "find_candidates"]

_PROTOTYPES = ("centroid", "medoid")


def _occurrence_subsequences(series: np.ndarray, motif: RuleMotif) -> list[np.ndarray]:
    return [series[occ.start : occ.end] for occ in motif.occurrences]


def find_class_candidates(
    instances: Sequence[np.ndarray],
    label,
    params: SaxParams,
    *,
    gamma: float = 0.2,
    prototype: str = "centroid",
    support_mode: str = "instances",
    numerosity_reduction: bool = True,
    min_split_fraction: float = 0.3,
    tracer=NOOP,
    discretize_cache=None,
) -> list[PatternCandidate]:
    """Candidates for one class (the inner loop of Algorithm 1).

    Parameters
    ----------
    instances:
        The class's training series.
    label:
        Class label attached to the produced candidates.
    params:
        SAX discretization parameters for this class.
    gamma:
        Minimum support as a fraction of the class's training size
        (the paper's γ; its experiments use 20 %).
    prototype:
        ``'centroid'`` (default, paper's choice) or ``'medoid'``.
    support_mode:
        ``'instances'`` counts distinct training instances containing
        the cluster (the definition in §2.1); ``'occurrences'`` counts
        raw occurrences (the literal ``cluster.size > γ·I`` of the
        Algorithm 1 listing). Both are available for the ablation bench.
    numerosity_reduction:
        Disable only for ablation studies.
    min_split_fraction:
        The 30 % rule of the bisection refinement.
    tracer:
        An :class:`~repro.obs.tracer.Tracer` recording the
        ``discretize`` / ``grammar`` / ``refine`` stage spans (the
        shared no-op by default), with ``align`` / ``bisect`` /
        ``prototype`` children under ``refine``. Candidate counts
        additionally go to the process-wide metrics registry
        (``candidates.generated``, ``candidates.dropped_support``,
        ``candidates.skipped_support``, ``grammar.rules``).
    discretize_cache:
        Optional :class:`~repro.runtime.DiscretizationCache`. The
        parameter search re-mines the same concatenated class series
        under many SAX triples; the cache lets every triple sharing a
        window size reuse the sliding/z-norm/PAA stages.
    """
    if prototype not in _PROTOTYPES:
        raise ValueError(f"prototype must be one of {_PROTOTYPES}, got {prototype!r}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if support_mode not in ("instances", "occurrences"):
        raise ValueError(f"unknown support_mode {support_mode!r}")

    metrics = registry()
    with tracer.span("class", label=str(label)):
        with tracer.span("discretize"):
            record, starts, lengths = discretize_class(
                instances,
                params,
                numerosity_reduction=numerosity_reduction,
                cache=discretize_cache,
            )
        series = np.concatenate(
            [np.asarray(inst, dtype=float).ravel() for inst in instances]
        )
        with tracer.span("grammar") as grammar_span:
            motifs = induce_motifs(record, starts, lengths)
            grammar_span.add("grammar.rules", len(motifs))
        metrics.inc("grammar.rules", len(motifs))
        n_instances = len(instances)
        min_support = max(2, int(np.ceil(gamma * n_instances)))

        candidates: list[PatternCandidate] = []
        dropped_support = 0
        skipped_support = 0
        with tracer.span("refine") as refine_span:
            for motif in motifs:
                if motif.frequency < 2:
                    continue
                # Bisection only shrinks coverage, so a motif already
                # below support cannot yield a surviving cluster.
                coverage = motif.support if support_mode == "instances" else motif.frequency
                if coverage < min_support:
                    skipped_support += 1
                    continue
                with tracer.span("align"):
                    aligned = align_subsequences(_occurrence_subsequences(series, motif))
                clusters = bisect_refine(
                    aligned, min_split_fraction=min_split_fraction, tracer=tracer
                )
                for cluster in clusters:
                    instances_covered = {
                        motif.occurrences[i].instance for i in cluster.member_indices
                    }
                    measure = (
                        len(instances_covered)
                        if support_mode == "instances"
                        else cluster.size
                    )
                    if measure < min_support:
                        dropped_support += 1
                        continue
                    with tracer.span("prototype"):
                        values = (
                            centroid_of(cluster)
                            if prototype == "centroid"
                            else medoid_of(cluster)
                        )
                        within = cluster.within_distances()
                    candidates.append(
                        PatternCandidate(
                            values=values,
                            label=label,
                            frequency=cluster.size,
                            support=len(instances_covered),
                            rule_id=motif.rule_id,
                            words=motif.words,
                            sax_params=params,
                            within_distances=within,
                        )
                    )
            refine_span.add("candidates.generated", len(candidates))
            refine_span.add("candidates.dropped_support", dropped_support)
            refine_span.add("candidates.skipped_support", skipped_support)
    metrics.inc("candidates.generated", len(candidates))
    metrics.inc("candidates.dropped_support", dropped_support)
    metrics.inc("candidates.skipped_support", skipped_support)
    return candidates


def _class_job(args) -> list[PatternCandidate]:
    """One class's mining run (module-level so process pools can pickle it)."""
    instances, label, params, options = args
    return find_class_candidates(instances, label, params, **options)


def find_candidates(
    X: np.ndarray,
    y: np.ndarray,
    params_by_class: dict,
    *,
    gamma: float = 0.2,
    prototype: str = "centroid",
    support_mode: str = "instances",
    numerosity_reduction: bool = True,
    executor=None,
    tracer=NOOP,
    discretize_cache=None,
) -> list[PatternCandidate]:
    """Algorithm 1 over the full training set.

    ``params_by_class`` maps each class label to its (possibly
    class-specific, see §4.3) :class:`SaxParams`. Classes are mined
    independently, so an ``executor``
    (:class:`~repro.runtime.executor.ParallelExecutor`) fans them out
    across workers; candidates are concatenated in class-label order
    regardless of scheduling, matching the serial loop exactly.

    The whole call is one ``mine`` span; per-class ``discretize`` /
    ``grammar`` / ``refine`` child spans nest under it — including from
    thread-backend workers (the span is *adopted* as their ambient
    parent). Process-backend workers run untraced (a tracer cannot
    cross the process boundary), leaving only the chunk-level executor
    timings.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    # Tracer and cache state (locks, thread-locals) is not picklable:
    # strip it from jobs that will be shipped to other processes.
    in_process = executor is None or executor.backend != "process"
    job_tracer = tracer if in_process else NOOP
    job_cache = discretize_cache if in_process else None
    options = dict(
        gamma=gamma,
        prototype=prototype,
        support_mode=support_mode,
        numerosity_reduction=numerosity_reduction,
        tracer=job_tracer,
        discretize_cache=job_cache,
    )
    jobs = [
        ([row for row in X[y == label]], label, params_by_class[label], options)
        for label in np.unique(y)
    ]
    with tracer.span("mine") as span, tracer.adopt(span):
        span.add("mine.classes", len(jobs))
        if executor is None:
            per_class = [_class_job(job) for job in jobs]
        else:
            per_class = executor.map(_class_job, jobs)
    return [candidate for group in per_class for candidate in group]
