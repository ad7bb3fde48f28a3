"""Shared reference oracles and tolerance-aware assert helpers.

Four families live here: the distance oracles below, the refinement
oracles (a copy-shrinking agglomeration and a bisection that
re-agglomerates every group), which the single-dendrogram refinement in
:mod:`repro.cluster` must match bit for bit, the candidate-by-
candidate de-duplication, which
:func:`repro.core.selection.remove_similar` must match element by
element, and the mask-rebuilding SMO solver at the end of the module,
which :class:`repro.ml.svm.BinarySVM` must match bit for bit.

The optimized kernels (mat-vec and FFT alike) are pinned against the
one implementation slow enough to be obviously correct: z-normalize
every window explicitly, subtract, square, sum. Every distance-kernel
test in the suite compares against *this* module so the tolerance
model lives in exactly one place:

* mat-vec vs naive — the rolling-statistics identity introduces
  cancellation noise; distances agree to ``~1e-8`` absolute on
  well-conditioned data.
* FFT vs mat-vec — spectral round-trip noise is ``~1e-13`` on the
  squared distance; after the square root it is amplified near zero,
  so the shared tolerance is ``rtol=1e-9`` with an absolute floor of
  ``atol=1e-6`` (see ``docs/runtime.md``).

Argmin positions are compared through the kernels' own tie-break
contract (:func:`repro.runtime.kernel.tie_break_argmin_rows`): every
alignment within tolerance of the row minimum is a tie and the lowest
index wins, so positions are *exactly* equal across backends even when
the distances differ in the last bits.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.linkage import Linkage, Merge, _check_distance_matrix, cut_k
from repro.cluster.refine import (
    MAX_CHILD_DIAMETER_RATIO,
    MIN_SPLIT_FRACTION,
    RefinedCluster,
    align_subsequences,
    centroid_of,
    medoid_of,
)
from repro.core.patterns import PatternCandidate
from repro.distance.best_match import batch_best_distances
from repro.distance.euclidean import pairwise_euclidean
from repro.ml.svm import BinarySVM, _kernel_matrix, _resolve_gamma
from repro.grammar.inference import discretize_class, induce_motifs
from repro.runtime.kernel import (
    PrenormalizedPattern,
    SlidingWindowStats,
    prenormalize_pattern,
    resample_pattern,
    tie_break_argmin_rows,
)
from repro.sax.znorm import znorm

__all__ = [
    "DISTANCE_RTOL",
    "DISTANCE_ATOL",
    "DISTANCE_NEARZERO_RTOL",
    "naive_distance_profile",
    "naive_profiles",
    "naive_best_distances",
    "assert_profiles_close",
    "assert_argmin_equal",
    "shrinking_agglomerate",
    "recursive_bisect_refine",
    "refine_every_motif",
    "banked_remove_similar",
    "masked_smo_fit",
]

#: Shared tolerance model for cross-backend distance comparisons.
DISTANCE_RTOL = 1e-9
DISTANCE_ATOL = 1e-6
#: Distances below this fraction of the profile's range are
#: "numerically zero": σ-cancellation noise enters d² linearly and the
#: square root amplifies it to ~sqrt(2L·δ) near d == 0, so two
#: near-zero values compare equal (see :func:`assert_profiles_close`).
DISTANCE_NEARZERO_RTOL = 5e-3


def naive_distance_profile(pattern: np.ndarray, series: np.ndarray) -> np.ndarray:
    """O(m·L) reference profile: explicit z-norm per window, no identities.

    Mirrors the public contract of ``distance_profile``: a pattern
    longer than the series is linearly resampled down first (yielding a
    single-alignment profile), and flat windows/patterns z-normalize to
    zeros exactly as :func:`repro.sax.znorm.znorm` defines.
    """
    pattern = np.asarray(pattern, dtype=float)
    series = np.asarray(series, dtype=float)
    if pattern.size > series.size:
        pattern = resample_pattern(pattern, series.size)
    q = znorm(pattern)
    n = pattern.size
    out = np.empty(series.size - n + 1)
    for pos in range(out.size):
        w = znorm(series[pos : pos + n])
        out[pos] = float(np.sqrt(np.sum((w - q) ** 2)))
    return out


def naive_profiles(pattern: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Stacked :func:`naive_distance_profile` over every row of ``X``."""
    X = np.asarray(X, dtype=float)
    return np.stack([naive_distance_profile(pattern, row) for row in X])


def naive_best_distances(
    pattern: np.ndarray, X: np.ndarray, *, rotation_invariant: bool = False
) -> np.ndarray:
    """Closest-match distance of one pattern to every row, the slow way."""
    X = np.asarray(X, dtype=float)
    best = naive_profiles(pattern, X).min(axis=1)
    if rotation_invariant:
        half = X.shape[1] // 2
        X_rot = np.column_stack([X[:, half:], X[:, :half]])
        best = np.minimum(best, naive_profiles(pattern, X_rot).min(axis=1))
    return best


def assert_profiles_close(
    actual: np.ndarray,
    expected: np.ndarray,
    *,
    rtol: float = DISTANCE_RTOL,
    atol: float = DISTANCE_ATOL,
    err_msg: str = "",
) -> None:
    """Distances agree within the shared tolerance model, NaN-free.

    Shapes must match exactly; both sides must be finite and
    non-negative (a distance can never be otherwise — catching a NaN
    here beats catching it three layers up in a classifier).

    The kernels' error model lives on the *squared* distance: the
    rolling-statistics identity derives each window's σ from
    whole-series cumulative sums, so on offset-dominated data its
    relative error δ reaches ``eps · Σx²/var`` (~1e-5 at the
    offset/noise ratios the property suite allows), that δ enters
    ``d²`` linearly, and a true-zero distance surfaces as
    ``sqrt(2L·δ)`` — a few 1e-3 of the profile's range. No fixed
    d-space floor covers that honestly, so the model is two-tier: each
    element agrees in d-space (``rtol`` plus a floor scaled by the
    profile's dynamic range), *or* both sides are numerically zero
    relative to that range (:data:`DISTANCE_NEARZERO_RTOL` — the regime
    where the square root has amplified σ's cancellation noise past any
    meaningful digits). Genuinely wrong distances fail both tiers; the
    exact cross-backend check is :func:`assert_argmin_equal`.
    """
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape, (
        f"profile shape mismatch: {actual.shape} vs {expected.shape}"
        + (f" ({err_msg})" if err_msg else "")
    )
    assert np.all(np.isfinite(actual)), f"non-finite distances in actual {err_msg}"
    assert np.all(np.isfinite(expected)), f"non-finite distances in expected {err_msg}"
    assert np.all(actual >= 0.0), f"negative distances in actual {err_msg}"
    scale = max(1.0, float(np.max(expected, initial=0.0)))
    diff = np.abs(actual - expected)
    ok_d = diff <= atol * scale + rtol * np.abs(expected)
    ok_nearzero = np.maximum(actual, expected) <= DISTANCE_NEARZERO_RTOL * scale
    ok = ok_d | ok_nearzero
    if not np.all(ok):
        worst = int(np.argmax(np.where(ok, 0.0, diff)))
        raise AssertionError(
            f"distances diverge beyond the tolerance model ({err_msg}): "
            f"{int((~ok).sum())}/{ok.size} elements, worst at flat index "
            f"{worst}: actual={actual.flat[worst]!r} "
            f"expected={expected.flat[worst]!r} (scale={scale:g})"
        )


def assert_argmin_equal(
    actual_profiles: np.ndarray,
    expected_profiles: np.ndarray,
    *,
    err_msg: str = "",
) -> None:
    """Best-match positions agree under the shared tie-break contract.

    Both profile matrices are reduced with
    :func:`~repro.runtime.kernel.tie_break_argmin_rows` — the exact
    reduction every backend and ``distance.best_match`` use — and the
    resulting index vectors must be *identical*. This is the strong
    form of cross-backend agreement: not just close distances, but the
    same chosen alignment.
    """
    a = tie_break_argmin_rows(np.atleast_2d(np.asarray(actual_profiles)))
    b = tie_break_argmin_rows(np.atleast_2d(np.asarray(expected_profiles)))
    np.testing.assert_array_equal(a, b, err_msg=err_msg or "argmin positions diverged")


# -- refinement oracles ------------------------------------------------------


def shrinking_agglomerate(dist: np.ndarray, method: str = "complete") -> Linkage:
    """Lance-Williams agglomeration that deletes each merged row/column.

    The straightforward form of :func:`repro.cluster.linkage.agglomerate`:
    after every merge the matrix is rebuilt without the absorbed row and
    column, so the argmin scans only live clusters. The production code
    retires rows in place instead; merges and heights must be identical.
    """
    d = _check_distance_matrix(dist).copy()
    n = d.shape[0]
    if n == 1:
        return Linkage(n=1, merges=[])
    active = list(range(n))
    sizes = [1] * n
    np.fill_diagonal(d, np.inf)
    merges: list[Merge] = []
    next_id = n
    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(d)), d.shape[0])
        if i > j:
            i, j = j, i
        size = sizes[i] + sizes[j]
        merges.append(Merge(left=active[i], right=active[j], height=float(d[i, j]), size=size))
        if method == "complete":
            merged_row = np.maximum(d[i], d[j])
        elif method == "single":
            merged_row = np.minimum(d[i], d[j])
        else:
            merged_row = (sizes[i] * d[i] + sizes[j] * d[j]) / size
        d[i, :] = merged_row
        d[:, i] = merged_row
        d[i, i] = np.inf
        active[i] = next_id
        sizes[i] = size
        next_id += 1
        keep = np.ones(d.shape[0], dtype=bool)
        keep[j] = False
        d = d[np.ix_(keep, keep)]
        del active[j]
        del sizes[j]
    return Linkage(n=n, merges=merges)


def recursive_bisect_refine(
    aligned: np.ndarray,
    *,
    min_split_fraction: float = MIN_SPLIT_FRACTION,
    max_child_diameter_ratio: float = MAX_CHILD_DIAMETER_RATIO,
    min_group_size: int = 2,
) -> list[RefinedCluster]:
    """Bisection refinement that re-agglomerates every group's sub-block.

    The literal reading of paper §3.2.2: each group is clustered on its
    own and cut in two. :func:`repro.cluster.refine.bisect_refine` reads
    every split off one dendrogram of the whole motif instead; clusters,
    their pairwise blocks and ``within_distances`` must be identical.
    """
    aligned = np.asarray(aligned, dtype=float)
    full_pairwise = pairwise_euclidean(aligned)
    out: list[RefinedCluster] = []

    def recurse(indices: np.ndarray) -> None:
        group_size = indices.size
        block = full_pairwise[np.ix_(indices, indices)]
        if group_size <= min_group_size:
            out.append(RefinedCluster(indices.tolist(), aligned[indices], block))
            return
        labels = cut_k(shrinking_agglomerate(block, method="complete"), 2)
        left = indices[labels == 0]
        right = indices[labels == 1]
        if min(left.size, right.size) < min_split_fraction * group_size:
            out.append(RefinedCluster(indices.tolist(), aligned[indices], block))
            return
        parent_diameter = block.max()
        child_diameter = max(
            full_pairwise[np.ix_(left, left)].max(),
            full_pairwise[np.ix_(right, right)].max(),
        )
        if parent_diameter <= 0 or child_diameter > max_child_diameter_ratio * parent_diameter:
            out.append(RefinedCluster(indices.tolist(), aligned[indices], block))
            return
        recurse(left)
        recurse(right)

    recurse(np.arange(aligned.shape[0]))
    return out


def refine_every_motif(
    instances,
    label,
    params,
    *,
    gamma: float = 0.2,
    prototype: str = "centroid",
    support_mode: str = "instances",
) -> tuple[list[PatternCandidate], int]:
    """Algorithm 1 without the support prefilter: refine, then filter.

    Every motif with two or more occurrences is aligned and bisected
    (by :func:`recursive_bisect_refine`); only then are clusters below
    ``γ·|class|`` dropped. Returns the candidates and the number of
    motifs refined. :func:`repro.core.candidates.find_class_candidates`
    skips motifs that cannot reach support before refining them; its
    candidates must equal these exactly.
    """
    record, starts, lengths = discretize_class(instances, params)
    series = np.concatenate([np.asarray(inst, dtype=float).ravel() for inst in instances])
    min_support = max(2, int(np.ceil(gamma * len(instances))))
    candidates: list[PatternCandidate] = []
    refined = 0
    for motif in induce_motifs(record, starts, lengths):
        if len(motif.occurrences) < 2:
            continue
        refined += 1
        aligned = align_subsequences([series[occ.start : occ.end] for occ in motif.occurrences])
        for cluster in recursive_bisect_refine(aligned):
            covered = {motif.occurrences[i].instance for i in cluster.member_indices}
            measure = len(covered) if support_mode == "instances" else cluster.size
            if measure < min_support:
                continue
            candidates.append(
                PatternCandidate(
                    values=centroid_of(cluster) if prototype == "centroid" else medoid_of(cluster),
                    label=label,
                    frequency=cluster.size,
                    support=len(covered),
                    rule_id=motif.rule_id,
                    words=motif.words,
                    sax_params=params,
                    within_distances=cluster.within_distances(),
                )
            )
    return candidates, refined


# -- de-duplication oracle ----------------------------------------------------


class _DedupBank:
    """One per-length bank of kept candidates for :func:`banked_remove_similar`.

    Kept values live in a capacity-doubling row matrix (amortized O(L)
    appends instead of an O(k·L) ``np.stack`` per probe) alongside their
    :class:`~repro.runtime.kernel.PrenormalizedPattern` forms, so the
    longer-candidate probe is one batched kernel call over patterns
    whose z-normalization was paid once at insert time.
    """

    __slots__ = ("length", "_values", "count", "prenormalized")

    def __init__(self, length: int) -> None:
        self.length = int(length)
        self._values = np.empty((4, self.length))
        self.count = 0
        self.prenormalized: list[PrenormalizedPattern] = []

    def append(self, values: np.ndarray) -> None:
        if self.count == self._values.shape[0]:
            grown = np.empty((2 * self.count, self.length))
            grown[: self.count] = self._values
            self._values = grown
        self._values[self.count] = values
        self.count += 1
        self.prenormalized.append(prenormalize_pattern(values))

    @property
    def values(self) -> np.ndarray:
        """The kept rows — a view, identical to stacking the kept list."""
        return self._values[: self.count]


def banked_remove_similar(
    candidates: list[PatternCandidate],
    tau: float,
) -> list[PatternCandidate]:
    """Greedy de-duplication that probes the kept banks candidate by candidate.

    The incremental form of Algorithm 2, lines 5-18: each candidate, in
    descending frequency, is compared against every kept candidate so
    far; :func:`repro.core.selection.remove_similar` computes all pair
    answers from one profile block per length pair instead, and must
    keep the same candidates in the same order. Candidates are compared by the closest-match distance (the shorter
    pattern slides over the longer); within τ the more frequent
    candidate wins. Scanning in descending frequency makes the result
    order-independent: a kept candidate can never lose to a later one.

    Kept candidates are bucketed by length into incrementally grown
    :class:`_DedupBank` arrays — candidate lengths cluster tightly
    around the SAX window, so there are few buckets. A shorter-or-equal
    candidate probes a bucket with one batched closest-match call over
    the bank's row matrix; a longer candidate slides every prenormalized
    bank pattern over itself through the batched kernel (mat-vec, the
    bitwise-exact backend), with the same low-tie-break distance the
    scalar ``best_match`` loop reported.
    """
    ordered = sorted(candidates, key=lambda c: c.frequency, reverse=True)
    kept: list[PatternCandidate] = []
    banks: dict[int, _DedupBank] = {}

    def is_similar(candidate: PatternCandidate) -> bool:
        for length, bank in banks.items():
            if candidate.length <= length:
                dists = batch_best_distances(candidate.values, bank.values)
                if bool((dists < tau).any()):
                    return True
            else:
                # Bank patterns slide over the (longer) candidate: one
                # SlidingWindowStats build per bucket instead of a full
                # rolling-statistics pass per kept pattern.
                stats = SlidingWindowStats(candidate.values[None, :], length)
                profiles = stats.batch_profiles_prenormalized(
                    bank.prenormalized, backend="matvec"
                )
                positions = tie_break_argmin_rows(profiles)
                dists = np.take_along_axis(
                    profiles, positions[:, :, None], axis=2
                )[:, 0, 0]
                if bool((dists < tau).any()):
                    return True
        return False

    for candidate in ordered:
        if not is_similar(candidate):
            kept.append(candidate)
            banks.setdefault(candidate.length, _DedupBank(candidate.length)).append(
                candidate.values
            )
    return kept


# -- SMO oracle ---------------------------------------------------------------


def masked_smo_fit(
    X: np.ndarray,
    y: np.ndarray,
    *,
    C: float = 1.0,
    kernel: str = "rbf",
    gamma: float | str = "scale",
    tol: float = 1e-3,
    max_iter: int = 20000,
) -> BinarySVM:
    """A :class:`BinarySVM` fitted by SMO that rebuilds every mask per step.

    Each iteration recomputes the ``I_up``/``I_low`` masks and
    ``yg = -y ⊙ ∇`` from scratch over all ``n`` rows and picks the
    maximal violating pair through boolean-indexed copies. The library
    solver keeps ``yg`` as its state and updates the masks only at the
    two indices a step changes; its ``alpha_``, ``bias_``,
    ``iterations_``, ``support_vectors_`` and ``support_coef_`` must be
    bitwise equal to this one's.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    machine = BinarySVM(C=C, kernel=kernel, gamma=gamma, tol=tol, max_iter=max_iter)
    n = X.shape[0]
    machine.gamma_ = _resolve_gamma(machine.gamma, X)
    K = _kernel_matrix(X, X, machine.kernel, machine.gamma_)

    alpha = np.zeros(n)
    grad = -np.ones(n)  # G = Qα − e with α = 0
    C = machine.C
    it = 0
    for it in range(1, machine.max_iter + 1):
        # I_up: α can increase along +y; I_low: can decrease.
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        if not up.any() or not low.any():
            break
        yg = -y * grad
        i = int(np.flatnonzero(up)[np.argmax(yg[up])])
        j = int(np.flatnonzero(low)[np.argmin(yg[low])])
        if yg[i] - yg[j] < machine.tol:
            break
        # Two-variable subproblem along the feasible direction
        # (α_i moves by +y_i·t, α_j by −y_j·t, preserving yᵀα = 0).
        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if quad <= 1e-12:
            quad = 1e-12
        delta = (yg[i] - yg[j]) / quad
        t_max_i = (C - alpha[i]) if y[i] > 0 else alpha[i]
        t_max_j = alpha[j] if y[j] > 0 else (C - alpha[j])
        t = min(delta, t_max_i, t_max_j)
        if t <= 0:
            break
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        # ΔG = Q[:, i]·Δα_i + Q[:, j]·Δα_j = t · y ⊙ (K[:, i] − K[:, j]).
        grad += t * y * (K[:, i] - K[:, j])
    machine.iterations_ = it

    # Bias from the KKT conditions: average over free vectors.
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    decision_wo_bias = (alpha * y) @ K
    if free.any():
        machine.bias_ = float(np.mean(y[free] - decision_wo_bias[free]))
    else:
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        yg = -y * grad
        hi = yg[up].max() if up.any() else 0.0
        lo = yg[low].min() if low.any() else 0.0
        machine.bias_ = float((hi + lo) / 2.0)

    support = alpha > 1e-8
    machine.alpha_ = alpha
    machine.support_vectors_ = X[support]
    machine.support_coef_ = (alpha * y)[support]
    return machine
