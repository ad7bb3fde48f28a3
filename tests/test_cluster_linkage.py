import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import squareform

from repro.cluster.linkage import agglomerate, cut_k
from repro.distance.euclidean import pairwise_euclidean
from tests.oracles import shrinking_agglomerate

#: Points on a coarse integer grid: duplicated rows and equal distances
#: (exact ties) are common, and all-equal sets occur.
grid_points = arrays(
    np.float64,
    st.tuples(st.integers(1, 14), st.integers(1, 3)),
    elements=st.integers(-2, 2).map(float),
)
real_points = arrays(
    np.float64,
    st.tuples(st.integers(1, 14), st.integers(1, 3)),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


def _random_distance_matrix(rng, n):
    X = rng.standard_normal((n, 3))
    return pairwise_euclidean(X)


class TestAgglomerate:
    def test_merge_count(self, rng):
        D = _random_distance_matrix(rng, 7)
        link = agglomerate(D)
        assert link.n == 7
        assert len(link.merges) == 6

    def test_heights_monotone(self, rng):
        for method in ("complete", "single", "average"):
            D = _random_distance_matrix(rng, 10)
            heights = agglomerate(D, method).heights()
            assert np.all(np.diff(heights) >= -1e-9)

    def test_matches_scipy_heights(self, rng):
        for method in ("complete", "single", "average"):
            D = _random_distance_matrix(rng, 12)
            ours = agglomerate(D, method).heights()
            theirs = scipy_linkage(squareform(D, checks=False), method=method)[:, 2]
            np.testing.assert_allclose(np.sort(ours), np.sort(theirs), atol=1e-9)

    def test_single_point(self):
        link = agglomerate(np.zeros((1, 1)))
        assert link.merges == []

    def test_two_points(self):
        D = np.array([[0.0, 2.5], [2.5, 0.0]])
        link = agglomerate(D)
        assert len(link.merges) == 1
        assert link.merges[0].height == 2.5
        assert link.merges[0].size == 2

    def test_rejects_asymmetric(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            agglomerate(D)

    def test_rejects_nonzero_diagonal(self):
        D = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="zero diagonal"):
            agglomerate(D)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            agglomerate(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        D = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            agglomerate(D)

    def test_rejects_unknown_method(self, rng):
        with pytest.raises(ValueError, match="method"):
            agglomerate(_random_distance_matrix(rng, 3), method="ward")


def _assert_same_linkage(actual, expected):
    assert actual.n == expected.n
    assert actual.merges == expected.merges
    assert actual.heights().tobytes() == expected.heights().tobytes()


class TestInPlaceParity:
    """In-place agglomeration equals the copy-shrinking oracle bit for bit."""

    @given(st.one_of(grid_points, real_points), st.sampled_from(["complete", "single", "average"]))
    @settings(max_examples=150, deadline=None)
    def test_merges_and_heights_identical(self, X, method):
        D = pairwise_euclidean(X)
        _assert_same_linkage(agglomerate(D, method), shrinking_agglomerate(D, method))

    @pytest.mark.parametrize("method", ["complete", "single", "average"])
    def test_duplicated_rows(self, method):
        X = np.repeat(np.array([[0.0], [1.0], [3.0]]), 3, axis=0)
        D = pairwise_euclidean(X)
        _assert_same_linkage(agglomerate(D, method), shrinking_agglomerate(D, method))

    @pytest.mark.parametrize("method", ["complete", "single", "average"])
    def test_all_equal_rows(self, method):
        D = np.zeros((6, 6))
        link = agglomerate(D, method)
        _assert_same_linkage(link, shrinking_agglomerate(D, method))
        assert not link.heights().any()


class TestLeafOrder:
    @given(st.one_of(grid_points, real_points))
    @settings(max_examples=60, deadline=None)
    def test_every_subtree_is_contiguous(self, X):
        link = agglomerate(pairwise_euclidean(X))
        order = link.leaf_order()
        assert sorted(order.tolist()) == list(range(link.n))
        position = np.empty(link.n, dtype=int)
        position[order] = np.arange(link.n)
        members = {i: [i] for i in range(link.n)}
        for t, merge in enumerate(link.merges):
            left, right = members[merge.left], members[merge.right]
            span = position[left + right]
            assert span.max() - span.min() + 1 == merge.size == link.size(link.n + t)
            # The left subtree precedes the right one and holds the
            # merged cluster's lowest point.
            assert position[left].max() < position[right].min()
            assert min(left) < min(right)
            members[link.n + t] = left + right

    def test_single_point(self):
        assert agglomerate(np.zeros((1, 1))).leaf_order().tolist() == [0]


class TestCutK:
    def test_k_equals_n_gives_singletons(self, rng):
        D = _random_distance_matrix(rng, 6)
        labels = cut_k(agglomerate(D), 6)
        assert np.unique(labels).size == 6

    def test_k_one_gives_single_cluster(self, rng):
        D = _random_distance_matrix(rng, 6)
        labels = cut_k(agglomerate(D), 1)
        assert np.unique(labels).size == 1

    def test_two_well_separated_blobs(self, rng):
        X = np.vstack([rng.normal(0, 0.1, (5, 2)), rng.normal(10, 0.1, (5, 2))])
        D = pairwise_euclidean(X)
        labels = cut_k(agglomerate(D), 2)
        assert np.unique(labels[:5]).size == 1
        assert np.unique(labels[5:]).size == 1
        assert labels[0] != labels[5]

    def test_matches_scipy_partition(self, rng):
        D = _random_distance_matrix(rng, 15)
        for k in (2, 3, 5):
            ours = cut_k(agglomerate(D, "complete"), k)
            Z = scipy_linkage(squareform(D, checks=False), method="complete")
            theirs = fcluster(Z, t=k, criterion="maxclust")
            # Partitions must be identical up to label renaming.
            mapping = {}
            for a, b in zip(ours, theirs):
                mapping.setdefault(a, b)
                assert mapping[a] == b

    def test_rejects_bad_k(self, rng):
        link = agglomerate(_random_distance_matrix(rng, 4))
        with pytest.raises(ValueError, match="k must be"):
            cut_k(link, 0)
        with pytest.raises(ValueError, match="k must be"):
            cut_k(link, 5)
