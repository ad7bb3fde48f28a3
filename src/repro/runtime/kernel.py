"""Vectorized sliding-window distance kernel.

The z-normalized distance profile of a pattern ``q`` against every
window of every series decomposes into two parts:

* statistics that depend only on the *series matrix and window length*
  — rolling window mean/std via cumulative sums, the flat-window mask,
  and the strided window view;
* a per-pattern cross-correlation ``⟨w, q⟩`` plus O(1) arithmetic.

:class:`SlidingWindowStats` precomputes the first part once so that
every pattern of a given length pays only the cross-correlation (the
paper's transform evaluates *all* patterns against *all* series, so the
reuse factor is the number of patterns per length).

Two backends compute the cross-correlation:

``matvec``
    One ``(n, J, L) @ (L,)`` mat-vec per pattern. The arithmetic is
    identical, expression for expression, to the reference
    implementation in ``repro.distance.best_match`` — results are
    bitwise equal, which the parallel-equivalence tests rely on.
``fft``
    The MASS trick: ``QT = irfft(rfft(X) · rfft(reverse(q)))`` computes
    every alignment of every pattern in O(n log n) per series instead
    of O(n·L) per pattern. The series spectrum is computed once per
    (matrix, length) and shared by the whole per-length pattern bucket;
    patterns are stacked into one ``(k, L)`` matrix and transformed in
    a single batched FFT. Downstream arithmetic (the ``2L − 2·QT/σ_w``
    distance identity, flat-window/flat-pattern branches) is the exact
    mat-vec expression — only the dot products differ, by FFT rounding
    (relative error ~1e-12), so distances agree to ~1e-9 relative with
    a small absolute floor near zero (see ``docs/runtime.md``).

``resolve_backend`` picks between them: ``auto`` selects FFT only above
a calibrated series-length × pattern-length × bucket-size crossover, so
short series keep the bitwise-exact mat-vec path.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np

from ..obs.metrics import registry
from ..sax.znorm import NORM_THRESHOLD, is_flat, znorm

__all__ = [
    "KERNEL_BACKENDS",
    "PrenormalizedPattern",
    "SlidingWindowStats",
    "prenormalize_pattern",
    "resample_pattern",
    "resolve_backend",
    "sliding_best_distances",
    "tie_break_argmin",
    "tie_break_argmin_rows",
]

#: Accepted values for every ``backend``/``kernel_backend`` knob.
KERNEL_BACKENDS = ("auto", "fft", "matvec")

#: ``auto`` crossover, calibrated on the batched transform benchmark
#: (``benchmarks/bench_transform.py``): FFT cost per pattern is
#: ~``nfft·log2(nfft)`` independent of the pattern length ``L``, while
#: the mat-vec costs ``J·L``, so FFT wins once ``L`` clears a few
#: multiples of ``log2(m)`` — and never pays off on short series or
#: tiny (bucket × length) workloads where its fixed overhead dominates.
#: Module-level on purpose: tests monkeypatch them to force the
#: crossover on tiny data.
FFT_MIN_SERIES_LENGTH = 128
FFT_MIN_BATCH_WORK = 64  # bucket size k × pattern length L
FFT_LENGTH_CROSSOVER = 6.0  # use FFT when L ≥ crossover · log2(m)

#: Complex scratch budget for one batched-FFT chunk. Patterns are
#: processed in chunks so the ``(chunk, n, nfft/2+1)`` spectrum product
#: never balloons with the bucket size.
_FFT_SCRATCH_BYTES = 32 * 1024 * 1024

#: Tie-breaking tolerance for best-match positions: every alignment
#: whose distance is within ``TIE_ATOL + TIE_RTOL·min`` of the row
#: minimum counts as tied, and the *smallest index* wins. The absolute
#: floor absorbs the sqrt-amplified backend noise near perfect matches
#: (dist² ~1e-13 of FFT rounding becomes ~3e-7 in the distance), so all
#: backends resolve ties identically.
TIE_RTOL = 1e-8
TIE_ATOL = 1e-6


def resolve_backend(
    backend: str,
    *,
    length: int,
    series_length: int,
    batch_size: int = 1,
) -> str:
    """Resolve an ``auto``/``fft``/``matvec`` request to a concrete backend.

    ``auto`` applies the calibrated crossover: FFT only for series of at
    least :data:`FFT_MIN_SERIES_LENGTH` points, buckets with at least
    :data:`FFT_MIN_BATCH_WORK` pattern-points of work, and patterns long
    enough (``length ≥ FFT_LENGTH_CROSSOVER · log2(series_length)``)
    that the O(L)→O(log m) per-window saving beats the FFT's fixed
    overhead. Everything else keeps the exact mat-vec path.
    """
    if backend not in KERNEL_BACKENDS:
        raise ValueError(f"backend must be one of {KERNEL_BACKENDS}, got {backend!r}")
    if backend != "auto":
        return backend
    if series_length < FFT_MIN_SERIES_LENGTH:
        return "matvec"
    if batch_size * length < FFT_MIN_BATCH_WORK:
        return "matvec"
    if length < FFT_LENGTH_CROSSOVER * math.log2(max(series_length, 2)):
        return "matvec"
    return "fft"


def tie_break_argmin(profile: np.ndarray, *, rtol: float = TIE_RTOL, atol: float = TIE_ATOL) -> int:
    """Best-match position of one distance profile, ties broken low.

    Returns the smallest index whose value is within
    ``atol + rtol·min`` of the profile minimum — the shared tie-break
    contract that keeps mat-vec, FFT and the scalar reference agreeing
    on positions even when rounding reorders near-equal distances.
    """
    return int(tie_break_argmin_rows(np.asarray(profile, dtype=float), rtol=rtol, atol=atol))


def tie_break_argmin_rows(
    profiles: np.ndarray, *, rtol: float = TIE_RTOL, atol: float = TIE_ATOL
) -> np.ndarray:
    """Vectorized :func:`tie_break_argmin` over the last axis."""
    p = np.asarray(profiles, dtype=float)
    lo = p.min(axis=-1, keepdims=True)
    # argmax of the boolean mask returns the first True — the smallest
    # tied index.
    return np.argmax(p <= lo + (atol + rtol * np.abs(lo)), axis=-1)


def resample_pattern(pattern: np.ndarray, length: int) -> np.ndarray:
    """Linear-interpolation resample of a pattern to ``length`` points.

    Used when a pattern is longer than the series it is matched against
    (a motif learned on long concatenated data meeting a short series).

    Degenerate inputs are rejected rather than silently flattened: a
    pattern with fewer than 2 points has no shape to interpolate
    (``np.interp`` against a single sample point would produce a
    constant), and a target below 2 points cannot hold one.
    """
    pattern = np.asarray(pattern, dtype=float)
    if pattern.ndim != 1:
        raise ValueError(f"pattern must be 1-D, got shape {pattern.shape}")
    if pattern.size < 2:
        raise ValueError(
            f"cannot resample a pattern with {pattern.size} point(s); "
            "patterns need at least 2 points"
        )
    length = int(length)
    if length < 2:
        raise ValueError(f"resample target length must be >= 2, got {length}")
    old = np.linspace(0.0, 1.0, num=pattern.size)
    new = np.linspace(0.0, 1.0, num=length)
    return np.interp(new, old, pattern)


class PrenormalizedPattern:
    """A pattern with its z-normalization hoisted out of the hot loop.

    :meth:`SlidingWindowStats.profiles` recomputes ``znorm(pattern)``
    and ``q @ q`` on every call; a serving engine matching the same
    pattern bank against every request can pay that once at compile
    time instead (see :class:`repro.serve.CompiledModel`). The stored
    values are exactly what ``profiles`` would compute — same
    expressions, same inputs — so the precompiled path stays bitwise
    identical to the on-the-fly one.
    """

    __slots__ = ("q", "q_is_flat", "qq", "length")

    def __init__(self, q: np.ndarray, q_is_flat: bool, qq: float) -> None:
        self.q = q
        self.q_is_flat = q_is_flat
        self.qq = qq
        self.length = int(q.size)

    def __reduce__(self):
        # Plain-tuple pickling so process-backend workers can carry
        # precompiled banks by value.
        return (PrenormalizedPattern, (self.q, self.q_is_flat, self.qq))


def prenormalize_pattern(pattern: np.ndarray) -> PrenormalizedPattern:
    """Precompute the per-pattern half of the distance profile.

    Returns the z-normalized pattern, its flatness flag and its squared
    norm — everything :meth:`SlidingWindowStats.profiles` derives from
    the raw values before touching the windows.
    """
    pattern = np.asarray(pattern, dtype=float)
    if pattern.ndim != 1:
        raise ValueError(f"pattern must be 1-D, got shape {pattern.shape}")
    q = znorm(pattern)
    q_is_flat = not q.any()
    return PrenormalizedPattern(q, q_is_flat, float(q @ q))


def _next_pow2(n: int) -> int:
    return 1 << max(int(n) - 1, 0).bit_length()


class _RowPrefix:
    """Centered rows of a series matrix and their cumulative sums.

    Everything :class:`SlidingWindowStats` derives from ``X`` alone,
    before a window length enters.
    """

    __slots__ = ("centered", "cumsum", "cumsum2", "flat_threshold")

    def __init__(self, X: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"SlidingWindowStats expects a 2-D matrix, got {X.shape}")
        n_rows, m = X.shape
        if m < 2:
            raise ValueError(f"window length must be in [2, {m}]; rows have {m} point(s)")
        # Centering the rows before the cumulative sums avoids the
        # catastrophic cancellation of sum(x²)/L − mean² for series
        # with a large offset; window z-normalization is unaffected.
        # The pattern side is z-normalized (Σq = 0), so the per-row
        # shift also leaves every ⟨w, q⟩ dot product unchanged.
        X = X - X.mean(axis=1, keepdims=True)
        self.centered = X
        zeros = np.zeros((n_rows, 1))
        self.cumsum = np.concatenate([zeros, np.cumsum(X, axis=1)], axis=1)
        self.cumsum2 = np.concatenate([zeros, np.cumsum(X * X, axis=1)], axis=1)
        # Flatness threshold with a magnitude-relative noise floor: the
        # cumulative-sum variance estimate carries cancellation noise
        # proportional to the series' squared magnitude.
        rms = np.sqrt(self.cumsum2[:, -1:] / max(m, 1))
        self.flat_threshold = np.maximum(NORM_THRESHOLD, 1e-7 * rms)


class SlidingWindowStats:
    """Rolling statistics of every length-``L`` window of a series matrix.

    Parameters
    ----------
    X:
        ``(n, m)`` series matrix.
    length:
        Window length ``L`` with ``2 <= L <= m``.

    The constructor performs the O(n·m) cumulative-sum precomputation;
    :meth:`profiles` then costs one ``(n, J, L) @ (L,)`` mat-vec per
    pattern — or, through the batched FFT backend
    (:meth:`batch_profiles_prenormalized`), one shared series spectrum
    plus O(n log n) per pattern. Instances are immutable after
    construction (the lazily-built series spectrum is idempotent and
    lock-guarded) and safe to share across threads.
    """

    __slots__ = (
        "length",
        "series_length",
        "n_series",
        "n_windows",
        "_windows",
        "_centered",
        "_sd",
        "_flat",
        "_safe_sd",
        "_xf",
        "_nfft",
        "_fft_lock",
    )

    def __init__(self, X: np.ndarray, length: int) -> None:
        self._fill(_RowPrefix(X), length)

    @classmethod
    def over_lengths(cls, X: np.ndarray, lengths: Sequence[int]) -> list["SlidingWindowStats"]:
        """One instance per window length, sharing the row prefix sums.

        The centering and cumulative sums depend only on ``X``; building
        them once for every length gives arrays identical to separate
        constructions, so each instance is bit for bit what
        ``SlidingWindowStats(X, length)`` builds.
        """
        prefix = _RowPrefix(X)
        out = []
        for length in lengths:
            stats = cls.__new__(cls)
            stats._fill(prefix, length)
            out.append(stats)
        return out

    def _fill(self, prefix: "_RowPrefix", length: int) -> None:
        n_rows, m = prefix.centered.shape
        length = int(length)
        if not 2 <= length <= m:
            raise ValueError(f"window length must be in [2, {m}], got {length}")
        self.length = length
        self.series_length = m
        self.n_series = n_rows
        self.n_windows = m - length + 1

        cumsum, cumsum2 = prefix.cumsum, prefix.cumsum2
        window_sum = cumsum[:, length:] - cumsum[:, :-length]
        window_sum2 = cumsum2[:, length:] - cumsum2[:, :-length]
        mean = window_sum / length
        var = window_sum2 / length - mean * mean
        np.maximum(var, 0.0, out=var)
        sd = np.sqrt(var)
        self._flat = is_flat(sd, prefix.flat_threshold)
        self._sd = sd
        self._safe_sd = np.where(self._flat, 1.0, sd)
        # The centered copy backs both the strided window view (matvec)
        # and the lazily-computed series spectrum (fft). The view is the
        # one ``sliding_window_view(X, length, axis=1)`` returns, without
        # its argument validation.
        X = prefix.centered
        self._centered = X
        self._windows = np.lib.stride_tricks.as_strided(
            X,
            (n_rows, self.n_windows, length),
            (X.strides[0], X.strides[1], X.strides[1]),
            writeable=False,
        )
        self._xf = None
        self._nfft = 0
        self._fft_lock = threading.Lock()

    def nbytes(self) -> int:
        """Approximate resident size (for cache accounting/debugging)."""
        total = int(
            self._sd.nbytes + self._flat.nbytes + self._safe_sd.nbytes
            + self._centered.nbytes
        )
        if self._xf is not None:
            total += int(self._xf.nbytes)
        return total

    # -- FFT backend -----------------------------------------------------------

    def _series_fft(self) -> np.ndarray:
        """The rfft of every (centered) row, built once and shared.

        One spectrum serves every pattern of this length and every
        backend call on this instance — the per-(length, batch) cost
        the MASS trick amortizes. Idempotent under races; the lock just
        keeps concurrent first callers from duplicating the work.
        """
        xf = self._xf
        if xf is None:
            with self._fft_lock:
                xf = self._xf
                if xf is None:
                    # nfft ≥ m keeps the circular convolution free of
                    # wrap-around in the J retained lags; the next power
                    # of two keeps rfft on its fastest path.
                    self._nfft = _next_pow2(self.series_length)
                    xf = np.fft.rfft(self._centered, self._nfft, axis=1)
                    self._xf = xf
                    registry().inc("kernel.fft.series_ffts")
        return xf

    def _fft_profile_chunks(self, pres: Sequence[PrenormalizedPattern]):
        """Yield ``(lo, hi, profiles)`` blocks of the batched FFT path.

        Patterns are stacked into one matrix per chunk so a single
        batched rfft/irfft covers the whole block; chunking bounds the
        ``(chunk, n, nfft)`` scratch at :data:`_FFT_SCRATCH_BYTES`.
        """
        L = self.length
        m = self.series_length
        xf = self._series_fft()
        nfft = self._nfft
        per_pattern = self.n_series * (nfft // 2 + 1) * 16
        chunk = max(1, _FFT_SCRATCH_BYTES // max(per_pattern, 1))
        for lo in range(0, len(pres), chunk):
            block = pres[lo : lo + chunk]
            Q = np.stack([pre.q for pre in block])
            # Correlation as convolution with the reversed pattern:
            # conv[t] = Σ_i x[t−i]·q[L−1−i], so lag t = L−1+j recovers
            # QT[j] = ⟨x[j:j+L], q⟩ for every alignment j at once.
            qf = np.fft.rfft(Q[:, ::-1], nfft, axis=1)
            conv = np.fft.irfft(qf[:, None, :] * xf[None, :, :], nfft, axis=2)
            dot = conv[:, :, L - 1 : m]
            # Only ``dot`` differs from the mat-vec path, by FFT rounding.
            yield lo, lo + len(block), self._profiles_from_dots(dot, block)

    def _profiles_from_dots(
        self, dot: np.ndarray, pres: Sequence[PrenormalizedPattern]
    ) -> np.ndarray:
        """Distance profiles ``(k, n, J)`` from window·pattern dot products.

        The mat-vec arithmetic of :meth:`_matvec_profiles`, expression
        for expression, broadcast over the ``k`` patterns: element-wise
        IEEE operations round the same whether applied to one slice or
        to the stack, so each slice is bitwise the one-pattern result.
        """
        L = self.length
        d2 = 2.0 * L - 2.0 * dot / self._safe_sd
        qq = np.array([0.0 if pre.q_is_flat else pre.qq for pre in pres])
        d2[:, self._flat] = qq[:, None]
        for i, pre in enumerate(pres):
            if pre.q_is_flat:
                d2[i][~self._flat] = float(L)
        np.maximum(d2, 0.0, out=d2)
        return np.sqrt(d2)

    # -- profiles --------------------------------------------------------------

    def profiles(self, pattern: np.ndarray, backend: str = "matvec") -> np.ndarray:
        """Distance profiles ``(n, J)`` of one pattern against all rows.

        ``pattern`` must already have exactly ``self.length`` points
        (resample longer patterns first — see :func:`resample_pattern`).
        """
        pattern = np.asarray(pattern, dtype=float)
        if pattern.ndim != 1 or pattern.size != self.length:
            raise ValueError(
                f"pattern must be 1-D with {self.length} points, got shape {pattern.shape}"
            )
        return self.profiles_prenormalized(prenormalize_pattern(pattern), backend=backend)

    def profiles_prenormalized(
        self, pre: PrenormalizedPattern, backend: str = "matvec"
    ) -> np.ndarray:
        """Distance profiles for an already-normalized pattern.

        The mat-vec arithmetic is the shared core of :meth:`profiles`;
        callers holding a :class:`PrenormalizedPattern` (serving
        engines, batch transforms over a fixed bank) skip the per-call
        z-normalization without changing a single floating-point
        expression. ``backend`` defaults to the bitwise-exact mat-vec;
        ``"fft"``/``"auto"`` route through the batched FFT path.
        """
        if pre.length != self.length:
            raise ValueError(
                f"pattern must have {self.length} points, got {pre.length}"
            )
        resolved = resolve_backend(
            backend,
            length=self.length,
            series_length=self.series_length,
            batch_size=1,
        )
        registry().inc(f"kernel.backend.{resolved}")
        if resolved == "fft":
            for _lo, _hi, block in self._fft_profile_chunks([pre]):
                return block[0]
        return self._matvec_profiles(pre)

    def batch_profiles_prenormalized(
        self, pres: Sequence[PrenormalizedPattern], backend: str = "auto"
    ) -> np.ndarray:
        """Distance profiles ``(k, n, J)`` of a whole per-length bucket.

        The FFT backend computes the series spectrum once and runs all
        ``k`` patterns through one batched transform; the mat-vec
        backend takes one mat-vec per pattern and the distance
        arithmetic once over the stack, bitwise identical to the
        per-pattern path.
        """
        pres = list(pres)
        for pre in pres:
            if pre.length != self.length:
                raise ValueError(
                    f"pattern must have {self.length} points, got {pre.length}"
                )
        resolved = resolve_backend(
            backend,
            length=self.length,
            series_length=self.series_length,
            batch_size=len(pres),
        )
        registry().inc(f"kernel.backend.{resolved}")
        out = np.empty((len(pres), self.n_series, self.n_windows))
        if resolved == "fft":
            for lo, hi, block in self._fft_profile_chunks(pres):
                out[lo:hi] = block
            return out
        for i, pre in enumerate(pres):
            np.matmul(self._windows, pre.q, out=out[i])
        return self._profiles_from_dots(out, pres)

    def _matvec_profiles(self, pre: PrenormalizedPattern) -> np.ndarray:
        """The mat-vec arithmetic without dispatch or counters."""
        L = self.length
        dot = self._windows @ pre.q  # (n, J)
        d2 = 2.0 * L - 2.0 * dot / self._safe_sd
        # Flat window vs pattern: ẑ(w) = 0, so dist² = Σ q².
        d2[self._flat] = 0.0 if pre.q_is_flat else pre.qq
        if pre.q_is_flat:
            # Pattern flat vs non-flat window: dist² = Σ ẑ(w)² = L.
            d2[~self._flat] = float(L)
        np.maximum(d2, 0.0, out=d2)
        return np.sqrt(d2)

    # -- best-match reductions -------------------------------------------------

    def best_distances(self, pattern: np.ndarray, backend: str = "matvec") -> np.ndarray:
        """Closest-match distance of one pattern to every row."""
        return self.profiles(pattern, backend=backend).min(axis=1)

    def best_distances_prenormalized(
        self, pre: PrenormalizedPattern, backend: str = "matvec"
    ) -> np.ndarray:
        """Closest-match distance of a precompiled pattern to every row."""
        return self.profiles_prenormalized(pre, backend=backend).min(axis=1)

    def batch_best_distances_prenormalized(
        self, pres: Sequence[PrenormalizedPattern], backend: str = "auto"
    ) -> np.ndarray:
        """Closest-match distances ``(k, n)`` of a whole bucket.

        Reduces each FFT chunk as it is produced, so the full
        ``(k, n, J)`` profile tensor never materializes for large
        buckets.
        """
        pres = list(pres)
        for pre in pres:
            if pre.length != self.length:
                raise ValueError(
                    f"pattern must have {self.length} points, got {pre.length}"
                )
        resolved = resolve_backend(
            backend,
            length=self.length,
            series_length=self.series_length,
            batch_size=len(pres),
        )
        registry().inc(f"kernel.backend.{resolved}")
        out = np.empty((len(pres), self.n_series))
        if resolved == "fft":
            for lo, hi, block in self._fft_profile_chunks(pres):
                out[lo:hi] = block.min(axis=2)
        else:
            for i, pre in enumerate(pres):
                out[i] = self._matvec_profiles(pre).min(axis=1)
        return out


def sliding_best_distances(
    pattern: np.ndarray,
    X: np.ndarray,
    *,
    cache=None,
    token=None,
    backend: str = "auto",
) -> np.ndarray:
    """Closest-match distances of one pattern to every row of ``X``.

    Functional entry point used by the feature transform: resamples an
    over-long pattern, fetches (or builds) the window statistics —
    through ``cache`` (a :class:`~repro.runtime.cache.WindowStatsCache`)
    when given — and reduces the profiles to their row minima. ``token``
    lets callers amortize the cache's series fingerprint across many
    patterns. ``backend`` selects the cross-correlation implementation
    (``auto`` keeps the exact mat-vec path below the FFT crossover).
    """
    pattern = np.asarray(pattern, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("sliding_best_distances expects a 2-D series matrix")
    m = X.shape[1]
    if pattern.size > m:
        pattern = resample_pattern(pattern, m)
    if cache is None:
        stats = SlidingWindowStats(X, pattern.size)
    else:
        stats = cache.stats(X, pattern.size, token=token)
    return stats.best_distances(pattern, backend=backend)
