import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster import linkage, refine
from repro.cluster.refine import (
    RefinedCluster,
    align_subsequences,
    bisect_refine,
    centroid_of,
    medoid_of,
)
from repro.sax.znorm import znorm_rows
from tests.oracles import recursive_bisect_refine


class TestAlignSubsequences:
    def test_resamples_to_median_length(self, rng):
        subs = [rng.standard_normal(n) for n in (8, 10, 12)]
        aligned = align_subsequences(subs)
        assert aligned.shape == (3, 10)

    def test_explicit_target_length(self, rng):
        aligned = align_subsequences([rng.standard_normal(9)], target_length=20)
        assert aligned.shape == (1, 20)

    def test_rows_are_znormed(self, rng):
        aligned = align_subsequences([rng.standard_normal(15) * 4 + 3 for _ in range(4)])
        np.testing.assert_allclose(aligned.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(aligned.std(axis=1), 1.0, atol=1e-9)

    def test_same_length_no_resampling(self):
        sub = np.arange(10.0)
        aligned = align_subsequences([sub, sub * 2])
        np.testing.assert_allclose(aligned[0], aligned[1], atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            align_subsequences([])

    def test_rejects_tiny_members(self):
        with pytest.raises(ValueError, match="at least 2"):
            align_subsequences([np.array([1.0])])


def _two_shape_matrix(rng, n_a=10, n_b=10, length=24):
    """Rows drawn from two very different shapes (sine vs ramp)."""
    t = np.linspace(0, 2 * np.pi, length)
    a = [np.sin(t) + rng.standard_normal(length) * 0.05 for _ in range(n_a)]
    b = [np.linspace(-1, 1, length) + rng.standard_normal(length) * 0.05 for _ in range(n_b)]
    from repro.sax.znorm import znorm_rows

    return znorm_rows(np.array(a + b))


class TestBisectRefine:
    def test_splits_two_shapes(self):
        aligned = _two_shape_matrix(np.random.default_rng(0))
        clusters = bisect_refine(aligned)
        assert len(clusters) == 2
        sizes = sorted(c.size for c in clusters)
        assert sizes == [10, 10]
        # Members must not mix shapes.
        for cluster in clusters:
            idx = np.array(cluster.member_indices)
            assert (idx < 10).all() or (idx >= 10).all()

    def test_homogeneous_group_not_split(self):
        local = np.random.default_rng(0)
        t = np.linspace(0, 2 * np.pi, 20)
        from repro.sax.znorm import znorm_rows

        aligned = znorm_rows(
            np.array([np.sin(t) + local.standard_normal(20) * 0.02 for _ in range(12)])
        )
        clusters = bisect_refine(aligned)
        assert len(clusters) == 1
        assert clusters[0].size == 12

    def test_minority_below_fraction_keeps_group(self):
        # 19 sines + 1 ramp: the 1-member side is below 30 %, no split.
        aligned = _two_shape_matrix(np.random.default_rng(0), n_a=19, n_b=1)
        clusters = bisect_refine(aligned)
        assert len(clusters) == 1

    def test_all_members_assigned_exactly_once(self, rng):
        aligned = _two_shape_matrix(rng, 7, 9)
        clusters = bisect_refine(aligned)
        members = sorted(i for c in clusters for i in c.member_indices)
        assert members == list(range(16))

    def test_min_group_size_respected(self, rng):
        aligned = _two_shape_matrix(rng, 2, 2)
        clusters = bisect_refine(aligned, min_group_size=4)
        assert len(clusters) == 1

    def test_single_member(self, rng):
        clusters = bisect_refine(rng.standard_normal((1, 10)))
        assert len(clusters) == 1 and clusters[0].size == 1

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            bisect_refine(np.zeros(5))

    def test_rejects_min_group_size_below_one(self):
        with pytest.raises(ValueError, match="min_group_size"):
            bisect_refine(np.zeros((3, 5)), min_group_size=0)


def _assert_same_clusters(actual, expected):
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert a.member_indices == b.member_indices
        assert a.aligned.tobytes() == b.aligned.tobytes()
        assert a.pairwise.shape == b.pairwise.shape
        assert a.pairwise.tobytes() == b.pairwise.tobytes()
        assert a.within_distances().tobytes() == b.within_distances().tobytes()


#: Aligned member matrices built from a few base shapes plus small
#: integer-grid noise: duplicated rows (exact distance ties) and
#: several well-separated groups (multi-level splits) are both common.
@st.composite
def member_matrices(draw):
    length = draw(st.integers(3, 8))
    n_shapes = draw(st.integers(1, 4))
    bases = draw(
        arrays(np.float64, (n_shapes, length), elements=st.integers(-3, 3).map(float))
    )
    n = draw(st.integers(1, 24))
    which = draw(arrays(np.int64, n, elements=st.integers(0, n_shapes - 1)))
    noise = draw(arrays(np.float64, (n, length), elements=st.sampled_from([0.0, 0.0, 0.1, -0.1])))
    return bases[which] * 2.0 + noise


class TestSingleDendrogramParity:
    """Reading splits off one dendrogram equals re-agglomerating each group."""

    @given(
        member_matrices(),
        st.sampled_from([0.0, 0.2, 0.3, 0.45]),
        st.sampled_from([0.5, 0.8, 1.0]),
        st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_clusters_identical(self, aligned, fraction, ratio, min_group_size):
        options = dict(
            min_split_fraction=fraction,
            max_child_diameter_ratio=ratio,
            min_group_size=min_group_size,
        )
        _assert_same_clusters(
            bisect_refine(aligned, **options), recursive_bisect_refine(aligned, **options)
        )

    def test_duplicated_rows(self):
        t = np.linspace(0, 2 * np.pi, 12)
        shapes = znorm_rows(np.array([np.sin(t), np.linspace(-1, 1, 12), np.cos(2 * t)]))
        aligned = np.repeat(shapes, [4, 4, 3], axis=0)[[0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7]]
        clusters = bisect_refine(aligned)
        _assert_same_clusters(clusters, recursive_bisect_refine(aligned))
        assert len(clusters) > 1

    def test_all_equal_rows(self):
        # Parent diameter 0: the homogeneity stop keeps the group whole.
        aligned = np.tile(np.arange(6.0), (7, 1))
        clusters = bisect_refine(aligned)
        _assert_same_clusters(clusters, recursive_bisect_refine(aligned))
        assert [c.size for c in clusters] == [7]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_at_most_min_group_size(self, n):
        aligned = np.random.default_rng(n).standard_normal((n, 5))
        _assert_same_clusters(
            bisect_refine(aligned, min_group_size=3),
            recursive_bisect_refine(aligned, min_group_size=3),
        )

    def test_agglomerates_once_per_motif(self, monkeypatch):
        calls = []

        def counting(dist, method="complete"):
            calls.append(np.asarray(dist).shape[0])
            return linkage.agglomerate(dist, method)

        monkeypatch.setattr(refine, "agglomerate", counting)
        aligned = _two_shape_matrix(np.random.default_rng(3), 8, 8)
        clusters = bisect_refine(aligned)
        assert len(clusters) >= 2  # the motif split at least once
        assert calls == [16]
        calls.clear()
        bisect_refine(aligned[:2])
        assert calls == []


class TestPrototypes:
    def _cluster(self, rng, n=8, length=16):
        aligned = align_subsequences([rng.standard_normal(length) for _ in range(n)])
        return bisect_refine(aligned, min_split_fraction=0.0, min_group_size=n)[0]

    def test_centroid_is_znormed_mean(self, rng):
        cluster = self._cluster(rng)
        centroid = centroid_of(cluster)
        assert abs(centroid.mean()) < 1e-9
        assert abs(centroid.std() - 1.0) < 1e-9

    def test_medoid_is_a_member(self, rng):
        cluster = self._cluster(rng)
        medoid = medoid_of(cluster)
        assert any(np.allclose(medoid, row) for row in cluster.aligned)

    def test_within_distances_condensed_size(self, rng):
        cluster = self._cluster(rng, n=6)
        assert cluster.within_distances().size == 6 * 5 // 2

    def test_within_distances_row_major_upper_triangle(self):
        cluster = self._cluster(np.random.default_rng(7), n=7)
        expected = cluster.pairwise[np.triu_indices(7, k=1)]
        assert cluster.within_distances().tobytes() == expected.tobytes()

    def test_single_member_no_distances(self, rng):
        cluster = RefinedCluster(
            member_indices=[0],
            aligned=rng.standard_normal((1, 8)),
            pairwise=np.zeros((1, 1)),
        )
        assert cluster.within_distances().size == 0


class TestPairwiseReuse:
    def test_precomputed_pairwise_matches_internal(self):
        from repro.distance.euclidean import pairwise_euclidean

        # Local generator: keeps the shared session rng stream (which
        # later modules' data depends on) untouched.
        local = np.random.default_rng(55)
        aligned = np.vstack(
            [local.standard_normal(12), local.standard_normal(12) + 5]
            * 4
        )
        pairwise = pairwise_euclidean(aligned)
        internal = bisect_refine(aligned)
        reused = bisect_refine(aligned, pairwise=pairwise)
        assert len(internal) == len(reused)
        for a, b in zip(internal, reused):
            assert a.member_indices == b.member_indices
            np.testing.assert_array_equal(a.pairwise, b.pairwise)

    def test_pairwise_shape_mismatch_rejected(self):
        aligned = np.random.default_rng(56).standard_normal((5, 10))
        with pytest.raises(ValueError, match="pairwise"):
            bisect_refine(aligned, pairwise=np.zeros((4, 4)))
