"""Agglomerative hierarchical clustering (complete / single / average linkage).

RPM refines the subsequences behind each grammar rule with
*complete-linkage* hierarchical clustering (paper §3.2.2). We implement
the classic Lance-Williams agglomeration over a precomputed distance
matrix; sizes here are small (a motif rarely has more than a few
hundred occurrences), so the straightforward O(n³) scheme is plenty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Linkage", "Merge", "agglomerate", "cut_k"]

_METHODS = ("complete", "single", "average")


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: clusters *left* and *right* merge at *height*.

    Cluster ids follow the scipy convention: ids ``0..n-1`` are the
    singletons; the merge at step ``t`` creates cluster ``n + t``.
    """

    left: int
    right: int
    height: float
    size: int


@dataclass
class Linkage:
    """The full merge tree produced by :func:`agglomerate`."""

    n: int
    merges: list[Merge]

    def heights(self) -> np.ndarray:
        """Merge heights in agglomeration order."""
        return np.array([m.height for m in self.merges])

    def size(self, node: int) -> int:
        """Number of points under cluster id ``node``."""
        return 1 if node < self.n else self.merges[node - self.n].size

    def leaf_order(self) -> np.ndarray:
        """Points in dendrogram order: every subtree is one contiguous run.

        Within each merge the ``left`` subtree precedes the ``right``
        one, so the subtree of a merge starting at offset ``s`` covers
        ``s .. s + size - 1`` and its right child starts at
        ``s + size(left)``.
        """
        order: list[int] = []
        stack = [self.n + len(self.merges) - 1]
        while stack:
            node = stack.pop()
            if node < self.n:
                order.append(node)
            else:
                merge = self.merges[node - self.n]
                stack.extend((merge.right, merge.left))
        return np.array(order, dtype=int)


def _check_distance_matrix(dist: np.ndarray) -> np.ndarray:
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got {d.shape}")
    if d.shape[0] == 0:
        raise ValueError("distance matrix must be non-empty")
    if not np.isfinite(d).all():
        raise ValueError("distance matrix must be finite")
    # np.allclose(d, d.T, atol=1e-9) spelled out: same test, less overhead.
    if (np.abs(d - d.T) > 1e-9 + 1e-5 * np.abs(d.T)).any():
        raise ValueError("distance matrix must be symmetric")
    if (d.diagonal() > 1e-9).any():
        raise ValueError("distance matrix must have a zero diagonal")
    return d


def agglomerate(dist: np.ndarray, method: str = "complete") -> Linkage:
    """Build the merge tree for a precomputed distance matrix.

    Parameters
    ----------
    dist:
        Symmetric (n, n) matrix of pairwise distances.
    method:
        ``'complete'`` (RPM's choice), ``'single'`` or ``'average'``.

    Returns
    -------
    Linkage
        ``n - 1`` merges ordered by non-decreasing height (heights are
        monotone for these three linkage methods).
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    d = _check_distance_matrix(dist).copy()
    n = d.shape[0]
    if n == 1:
        return Linkage(n=1, merges=[])

    # Rows keep their original positions: a merged cluster lives in the
    # lower of its two rows and the other row/column is retired to +inf.
    # Retired entries never win the argmin, so the row-major scan visits
    # the live entries in the same order a shrinking matrix would and
    # ties break identically. active[i] maps row i to its cluster id;
    # sizes track member counts for average linkage.
    active = list(range(n))
    sizes = [1] * n
    np.fill_diagonal(d, np.inf)
    merges: list[Merge] = []

    for next_id in range(n, 2 * n - 1):
        i, j = divmod(int(d.argmin()), n)
        if i > j:
            i, j = j, i
        row_i, row_j = d[i], d[j]
        size = sizes[i] + sizes[j]
        merges.append(Merge(active[i], active[j], float(row_i[j]), size))

        # Lance-Williams update of row i, in place, to represent the
        # merged cluster.
        if method == "complete":
            np.maximum(row_i, row_j, out=row_i)
        elif method == "single":
            np.minimum(row_i, row_j, out=row_i)
        else:  # average
            row_i *= sizes[i]
            row_i += sizes[j] * row_j
            row_i /= size
        row_i[i] = row_i[j] = np.inf
        d[:, i] = row_i
        row_j.fill(np.inf)
        d[:, j] = np.inf
        active[i] = next_id
        sizes[i] = size

    return Linkage(n=n, merges=merges)


def cut_k(linkage: Linkage, k: int) -> np.ndarray:
    """Cut the merge tree into exactly *k* clusters.

    Returns an array of ``n`` labels in ``0..k-1`` (labelled by order of
    first appearance). ``k`` must satisfy ``1 <= k <= n``.
    """
    n = linkage.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # Apply the first n - k merges with a union-find.
    parent = list(range(n + len(linkage.merges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, merge in enumerate(linkage.merges[: n - k]):
        new_id = n + t
        parent[find(merge.left)] = new_id
        parent[find(merge.right)] = new_id

    labels = np.empty(n, dtype=int)
    mapping: dict[int, int] = {}
    for i in range(n):
        root = find(i)
        if root not in mapping:
            mapping[root] = len(mapping)
        labels[i] = mapping[root]
    return labels
