"""Iterative bisection refinement of grammar-rule subsequence groups.

Paper §3.2.2: a grammar rule's subsequences may mix more than one shape
(SAX granularity is coarse). RPM therefore clusters them with
complete-linkage, always trying a 2-way split first:

* if one side of the split would hold less than ``min_split_fraction``
  (30 %) of the group, the group is considered homogeneous and kept;
* otherwise both halves are split recursively until no group can be
  split further.

The whole recursion reads its splits off **one** complete-linkage
dendrogram of the motif. That is exact, not an approximation: a
subtree's members merge only among themselves until the subtree is
complete, a complete-linkage height is the maximum of original entries
(so it does not depend on merge order), and ties break by row-major
position, whose order a subset keeps. Agglomerating a group's own
sub-block therefore reproduces its subtree merge for merge, and the
group's top split is the subtree's last merge.

Groups smaller than the support threshold ``γ · |class|`` are discarded
by the caller; surviving groups are summarized by their **centroid**
(the mean of the z-normalized, length-aligned members) or **medoid**
(the member minimizing total distance to the rest) — the paper notes
either works.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..distance.euclidean import pairwise_euclidean
from ..obs.tracer import NOOP
from ..sax.znorm import znorm, znorm_rows
from .linkage import agglomerate

__all__ = [
    "RefinedCluster",
    "align_subsequences",
    "bisect_refine",
    "centroid_of",
    "medoid_of",
]

#: Minimum fraction of a group a bisection side must hold for the split
#: to be accepted (paper §3.2.2).
MIN_SPLIT_FRACTION = 0.3

#: A split must also shrink the cluster: it is accepted only when the
#: larger child's diameter (complete-linkage height) is at most this
#: fraction of the parent's. Without this, a *homogeneous* group keeps
#: bisecting into balanced halves forever — the paper's "stops when no
#: group can be further split" implies such a homogeneity check.
MAX_CHILD_DIAMETER_RATIO = 0.8


@dataclass
class RefinedCluster:
    """A homogeneous group of subsequences from one grammar rule.

    ``member_indices`` point back into the motif's occurrence list;
    ``aligned`` holds the z-normalized, length-aligned member matrix the
    prototype is computed from.
    """

    member_indices: list[int]
    aligned: np.ndarray
    pairwise: np.ndarray | None = field(repr=False, default=None)

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self.member_indices)

    def within_distances(self) -> np.ndarray:
        """Condensed (upper-triangle) pairwise member distances.

        These feed the τ threshold computation of Algorithm 2.
        """
        if self.size < 2:
            return np.empty(0)
        # Strict upper triangle in row-major order, as np.triu_indices
        # would index it.
        return self.pairwise[~np.tri(self.size, dtype=bool)]


def align_subsequences(
    subsequences: list[np.ndarray],
    target_length: int | None = None,
) -> np.ndarray:
    """Z-normalize and resample variable-length subsequences to one length.

    The target defaults to the *median* member length, which keeps the
    prototype faithful to the dominant scale of the motif.
    """
    if not subsequences:
        raise ValueError("need at least one subsequence")
    lengths = [np.asarray(s).size for s in subsequences]
    if min(lengths) < 2:
        raise ValueError("subsequences must have at least 2 points")
    if target_length is None:
        target_length = int(np.median(lengths))
    target_length = max(int(target_length), 2)
    grid = np.linspace(0.0, 1.0, num=target_length)
    rows = np.empty((len(subsequences), target_length))
    for i, sub in enumerate(subsequences):
        values = np.asarray(sub, dtype=float)
        if values.size == target_length:
            rows[i] = values
        else:
            rows[i] = np.interp(grid, np.linspace(0.0, 1.0, num=values.size), values)
    return znorm_rows(rows)


def bisect_refine(
    aligned: np.ndarray,
    *,
    min_split_fraction: float = MIN_SPLIT_FRACTION,
    max_child_diameter_ratio: float = MAX_CHILD_DIAMETER_RATIO,
    min_group_size: int = 2,
    pairwise: np.ndarray | None = None,
    tracer=NOOP,
) -> list[RefinedCluster]:
    """Recursively 2-way split an aligned member matrix (paper §3.2.2).

    The motif is agglomerated once (when it has more than
    ``min_group_size`` members) and every level's split is read off that
    dendrogram (see the module docstring for why this is exact).

    Parameters
    ----------
    aligned:
        (n, L) matrix of z-normalized, length-aligned subsequences.
    min_split_fraction:
        A split is accepted only when both halves hold at least this
        fraction of the parent group (the paper's 30 % rule).
    max_child_diameter_ratio:
        Homogeneity stop: the split is kept only when the larger child
        diameter is at most this fraction of the parent diameter.
    min_group_size:
        Groups at or below this size are never split.
    pairwise:
        Optional precomputed ``(n, n)`` distance matrix of ``aligned``
        rows. Callers that already paid for it (e.g. repeated
        refinement sweeps over one motif) pass it here; every recursion
        level and every emitted cluster block then reuses slices of the
        single matrix instead of recomputing distances.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; each call records a
        ``bisect`` span with member/cluster/split counters (same-named
        sibling spans are aggregated by the tree emitter, so per-motif
        calls fold into one line).

    Returns
    -------
    list[RefinedCluster]
        Leaves of the bisection tree, each with its member indices into
        the original matrix and its own pairwise distance block.
    """
    aligned = np.asarray(aligned, dtype=float)
    if aligned.ndim != 2:
        raise ValueError(f"aligned must be 2-D, got {aligned.shape}")
    n = aligned.shape[0]
    if pairwise is not None:
        pairwise = np.asarray(pairwise, dtype=float)
        if pairwise.shape != (n, n):
            raise ValueError(f"pairwise must be ({n}, {n}) to match aligned, got {pairwise.shape}")
    if min_group_size < 1:
        raise ValueError(f"min_group_size must be >= 1, got {min_group_size}")
    out: list[RefinedCluster] = []
    n_splits = 0

    def emit(indices: np.ndarray, block: np.ndarray) -> None:
        out.append(
            RefinedCluster(
                member_indices=indices.tolist(),
                aligned=aligned[indices],
                pairwise=block,
            )
        )

    def recurse(indices: np.ndarray, block: np.ndarray, node: int, offset: int) -> None:
        nonlocal n_splits
        group_size = indices.size
        if group_size <= min_group_size:
            emit(indices, block)
            return
        merge = dendrogram.merges[node - n]
        boundary = offset + dendrogram.size(merge.left)
        # agglomerate keeps a merged cluster in its lower row, so the
        # left side holds the group's first member and is split first,
        # as with cut_k's first-appearance labels.
        in_left = position[indices] < boundary
        sides = ((merge.left, offset, in_left), (merge.right, boundary, ~in_left))
        smaller = min(dendrogram.size(merge.left), dendrogram.size(merge.right))
        if smaller < min_split_fraction * group_size:
            emit(indices, block)
            return
        children = []
        for child, child_offset, mask in sides:
            local = np.flatnonzero(mask)
            children.append((indices[local], block[np.ix_(local, local)], child, child_offset))
        parent_diameter = block.max()
        child_diameter = max(children[0][1].max(), children[1][1].max())
        if parent_diameter <= 0 or child_diameter > max_child_diameter_ratio * parent_diameter:
            emit(indices, block)
            return
        n_splits += 1
        for child in children:
            recurse(*child)

    with tracer.span("bisect") as span:
        full_pairwise = pairwise_euclidean(aligned) if pairwise is None else pairwise
        # In leaf order every subtree is one contiguous run, so a group's
        # two sides are told apart by their members' positions in it.
        if n > min_group_size:
            dendrogram = agglomerate(full_pairwise, method="complete")
            position = np.empty(n, dtype=int)
            position[dendrogram.leaf_order()] = np.arange(n)
        root = np.arange(n)
        recurse(root, full_pairwise[np.ix_(root, root)], 2 * n - 2, 0)  # root cluster id
        span.add("bisect.members", n)
        span.add("bisect.splits", n_splits)
        span.add("bisect.clusters", len(out))
    return out


def centroid_of(cluster: RefinedCluster) -> np.ndarray:
    """Mean of the aligned members, re-z-normalized (the paper's default)."""
    return znorm(cluster.aligned.mean(axis=0))


def medoid_of(cluster: RefinedCluster) -> np.ndarray:
    """The member minimizing the summed distance to the others."""
    totals = cluster.pairwise.sum(axis=1)
    return cluster.aligned[int(np.argmin(totals))].copy()
