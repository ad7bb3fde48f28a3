import numpy as np
import pytest

from repro.cluster import linkage, refine
from repro.core import candidates as candidates_module
from repro.core.candidates import find_candidates, find_class_candidates
from repro.core.patterns import PatternCandidate
from repro.data.synthetic import italy_power_sim
from repro.obs import Tracer, registry
from repro.sax.discretize import SaxParams
from tests.oracles import refine_every_motif

PARAMS = SaxParams(16, 4, 4)


def _bump_class(rng, n=8, length=80, pos=30, width=18, sign=1.0):
    out = []
    for _ in range(n):
        series = rng.standard_normal(length) * 0.05
        p = pos + int(rng.integers(-3, 4))
        series[p : p + width] += sign * np.hanning(width) * 3.0
        out.append(series)
    return out


class TestFindClassCandidates:
    def test_finds_shared_motif(self, rng):
        instances = _bump_class(rng)
        candidates = find_class_candidates(instances, "A", PARAMS, gamma=0.3)
        assert candidates
        assert all(isinstance(c, PatternCandidate) for c in candidates)
        assert all(c.label == "A" for c in candidates)

    def test_support_respects_gamma(self, rng):
        instances = _bump_class(rng, n=10)
        for candidate in find_class_candidates(instances, 0, PARAMS, gamma=0.5):
            assert candidate.support >= 5

    def test_occurrence_support_mode(self, rng):
        instances = _bump_class(rng, n=10)
        occ = find_class_candidates(
            instances, 0, PARAMS, gamma=0.4, support_mode="occurrences"
        )
        for candidate in occ:
            assert candidate.frequency >= 4

    def test_candidates_are_znormed(self, rng):
        instances = _bump_class(rng)
        for candidate in find_class_candidates(instances, 0, PARAMS, gamma=0.3):
            assert abs(candidate.values.mean()) < 1e-6
            assert abs(candidate.values.std() - 1.0) < 1e-6

    def test_medoid_prototype(self, rng):
        instances = _bump_class(rng)
        candidates = find_class_candidates(
            instances, 0, PARAMS, gamma=0.3, prototype="medoid"
        )
        assert candidates  # medoids are aligned members, also z-normed

    def test_pattern_length_at_least_window(self, rng):
        instances = _bump_class(rng)
        for candidate in find_class_candidates(instances, 0, PARAMS, gamma=0.3):
            # Aligned to the median occurrence length, never shorter
            # than the discretization window.
            assert candidate.length >= PARAMS.window_size

    def test_rejects_bad_gamma(self, rng):
        with pytest.raises(ValueError, match="gamma"):
            find_class_candidates(_bump_class(rng, n=3), 0, PARAMS, gamma=0.0)

    def test_rejects_bad_prototype(self, rng):
        with pytest.raises(ValueError, match="prototype"):
            find_class_candidates(_bump_class(rng, n=3), 0, PARAMS, prototype="mean")

    def test_rejects_bad_support_mode(self, rng):
        with pytest.raises(ValueError, match="support_mode"):
            find_class_candidates(_bump_class(rng, n=3), 0, PARAMS, support_mode="x")

    def test_pure_noise_fewer_candidates_than_structured(self, rng):
        structured = find_class_candidates(_bump_class(rng, n=8), 0, PARAMS, gamma=0.5)
        noise = find_class_candidates(
            [rng.standard_normal(80) for _ in range(8)], 0, PARAMS, gamma=0.5
        )
        assert len(noise) <= len(structured) + 2


class TestFindCandidates:
    def test_per_class_labels(self, rng):
        X = np.array(_bump_class(rng, n=6) + _bump_class(rng, n=6, sign=-1.0))
        y = np.array([0] * 6 + [1] * 6)
        candidates = find_candidates(X, y, {0: PARAMS, 1: PARAMS}, gamma=0.3)
        labels = {c.label for c in candidates}
        assert labels == {0, 1}

    def test_class_specific_params(self, rng):
        X = np.array(_bump_class(rng, n=6) + _bump_class(rng, n=6, sign=-1.0))
        y = np.array([0] * 6 + [1] * 6)
        params = {0: SaxParams(16, 4, 4), 1: SaxParams(24, 6, 5)}
        candidates = find_candidates(X, y, params, gamma=0.3)
        for candidate in candidates:
            assert candidate.sax_params == params[candidate.label]


def _italy_class(label=0):
    data = italy_power_sim()
    return [row for row in data.X_train[data.y_train == label]]


class TestSupportPrefilter:
    """Skipping sub-support motifs before refinement changes no candidate."""

    @pytest.mark.parametrize("support_mode", ["instances", "occurrences"])
    @pytest.mark.parametrize("prototype", ["centroid", "medoid"])
    @pytest.mark.parametrize(
        "source, params, gamma",
        [
            ("italy", SaxParams(8, 3, 3), 0.2),
            ("italy", SaxParams(12, 4, 4), 0.3),
            ("bump", PARAMS, 0.3),
        ],
    )
    def test_matches_refine_then_filter(self, support_mode, prototype, source, params, gamma):
        instances = _italy_class() if source == "italy" else _bump_class(np.random.default_rng(8))
        options = dict(gamma=gamma, prototype=prototype, support_mode=support_mode)
        tracer = Tracer()
        actual = find_class_candidates(instances, "A", params, tracer=tracer, **options)
        expected, refined_by_oracle = refine_every_motif(instances, "A", params, **options)
        assert expected  # the comparison is not vacuous
        assert len(actual) == len(expected)
        for a, b in zip(actual, expected):
            assert a.values.tobytes() == b.values.tobytes()
            assert (a.frequency, a.support, a.rule_id, a.words) == (
                b.frequency,
                b.support,
                b.rule_id,
                b.words,
            )
            assert a.within_distances.tobytes() == b.within_distances.tobytes()
        (refine_span,) = [s for s, _ in tracer.roots[0].walk() if s.name == "refine"]
        refined = sum(1 for child in refine_span.children if child.name == "bisect")
        skipped = refine_span.counters["candidates.skipped_support"]
        assert skipped + refined == refined_by_oracle


class TestRefinementWork:
    """Deterministic work counters of the refinement layer (no timing)."""

    def test_skips_and_agglomerates_once_per_refined_motif(self, monkeypatch):
        agglomerations = []
        refined_sizes = []

        def counting_agglomerate(dist, method="complete"):
            agglomerations.append(np.asarray(dist).shape[0])
            return linkage.agglomerate(dist, method)

        def recording_bisect(aligned, **kwargs):
            refined_sizes.append(np.asarray(aligned).shape[0])
            return refine.bisect_refine(aligned, **kwargs)

        monkeypatch.setattr(refine, "agglomerate", counting_agglomerate)
        monkeypatch.setattr(candidates_module, "bisect_refine", recording_bisect)
        before = registry().snapshot()
        find_class_candidates(_italy_class(), 0, SaxParams(8, 3, 3), gamma=0.2)
        counters = registry().delta(before)["counters"]
        assert counters["candidates.skipped_support"] > 0
        assert counters["candidates.generated"] > 0
        min_group_size = 2  # bisect_refine's default, used by Algorithm 1
        assert len(agglomerations) == sum(1 for n in refined_sizes if n > min_group_size)
        assert agglomerations == [n for n in refined_sizes if n > min_group_size]
