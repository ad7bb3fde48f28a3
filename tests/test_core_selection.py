import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import PatternCandidate
from repro.core.selection import (
    SelectionResult,
    _cap_candidates,
    compute_tau,
    find_distinct,
    remove_similar,
)
from repro.obs.tracer import Tracer
from repro.runtime.kernel import SlidingWindowStats, tie_break_argmin
from repro.sax.discretize import SaxParams
from tests.oracles import banked_remove_similar

PARAMS = SaxParams(8, 4, 4)


def _candidate(values, label=0, frequency=2, within=()):
    return PatternCandidate(
        values=np.asarray(values, dtype=float),
        label=label,
        frequency=frequency,
        support=frequency,
        rule_id=1,
        words=("ab",),
        sax_params=PARAMS,
        within_distances=np.asarray(within, dtype=float),
    )


class TestComputeTau:
    def test_percentile_of_pooled_distances(self):
        candidates = [
            _candidate(np.arange(5.0), within=[1.0, 2.0, 3.0]),
            _candidate(np.arange(5.0), within=[4.0, 5.0]),
        ]
        # pooled = [1,2,3,4,5]; 30th percentile
        assert compute_tau(candidates, 30) == pytest.approx(np.percentile([1, 2, 3, 4, 5], 30))

    def test_no_distances_gives_zero(self):
        assert compute_tau([_candidate(np.arange(4.0))]) == 0.0

    def test_monotone_in_percentile(self):
        candidates = [_candidate(np.arange(5.0), within=np.linspace(0.1, 3, 20))]
        taus = [compute_tau(candidates, p) for p in (10, 30, 50, 70, 90)]
        assert taus == sorted(taus)

    def test_rejects_bad_percentile(self):
        with pytest.raises(ValueError, match="percentile"):
            compute_tau([], 150)


class TestRemoveSimilar:
    def test_keeps_more_frequent_of_similar_pair(self, rng):
        shape = np.sin(np.linspace(0, 3, 20))
        a = _candidate(shape, frequency=10)
        b = _candidate(shape + rng.standard_normal(20) * 0.01, frequency=3)
        kept = remove_similar([b, a], tau=1.0)
        assert len(kept) == 1
        assert kept[0].frequency == 10

    def test_dissimilar_patterns_both_kept(self):
        a = _candidate(np.sin(np.linspace(0, 3, 20)), frequency=5)
        b = _candidate(np.linspace(-1, 1, 20), frequency=4)
        kept = remove_similar([a, b], tau=0.5)
        assert len(kept) == 2

    def test_zero_tau_keeps_everything(self, rng):
        candidates = [_candidate(rng.standard_normal(15), frequency=i) for i in range(5)]
        assert len(remove_similar(candidates, 0.0)) == 5

    def test_different_length_comparison(self, rng):
        long_shape = np.sin(np.linspace(0, 4, 40))
        short_shape = long_shape[10:28]  # contained in the long one
        a = _candidate(long_shape, frequency=9)
        b = _candidate(short_shape, frequency=2)
        kept = remove_similar([a, b], tau=1.0)
        assert len(kept) == 1 and kept[0].frequency == 9

    def test_empty_input(self):
        assert remove_similar([], 1.0) == []


@st.composite
def _dedup_pools(draw):
    """Candidate pools with exact ties: duplicates, flats, equal frequencies.

    Values sit on a small integer grid so that duplicated and flat
    patterns and equal closest-match distances are common; τ is either
    drawn or set to one pair's exact closest-match distance, which the
    strict ``< τ`` test must leave on the keep side.
    """
    n = draw(st.integers(0, 12))
    pool: list[PatternCandidate] = []
    for _ in range(n):
        kind = draw(st.sampled_from(["grid", "grid", "flat", "duplicate", "affine", "embed"]))
        if kind in ("duplicate", "affine", "embed") and pool:
            # Copies equal after z-normalization, whose computed distances
            # differ only by rounding: near-ties in both probe directions.
            values = draw(st.sampled_from(pool)).values.copy()
            scaled = values * draw(st.integers(1, 3)) + draw(st.integers(-5, 5))
            if kind == "affine":
                values = scaled
            elif kind == "embed":
                values = np.concatenate([scaled, values])
        elif kind == "flat":
            values = np.full(draw(st.integers(2, 9)), float(draw(st.integers(-2, 2))))
        else:
            length = draw(st.integers(2, 9))
            values = np.array(draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length)), float)
        pool.append(_candidate(values, frequency=draw(st.integers(1, 3))))
    mode = draw(st.sampled_from(["drawn", "at_pair", "zero"]))
    if mode == "zero" or len(pool) < 2:
        tau = 0.0 if mode == "zero" else draw(st.floats(0.0, 6.0))
    elif mode == "drawn":
        tau = draw(st.floats(0.0, 6.0))
    else:
        # A shorter probe reads the profile minimum, a longer one the
        # tie-break-low position's value; either may be the pair's τ.
        i, j = draw(st.permutations(range(len(pool))))[:2]
        short, long_ = sorted((pool[i], pool[j]), key=lambda c: c.length)
        profile = SlidingWindowStats(long_.values[None, :], short.length).profiles(short.values)[0]
        at = tie_break_argmin(profile) if draw(st.booleans()) else int(np.argmin(profile))
        tau = float(profile[at])
    return pool, tau


class TestRemoveSimilarParity:
    """The one-block-per-length-pair scan keeps what the banked probe keeps."""

    @given(_dedup_pools())
    @settings(max_examples=300, deadline=None)
    def test_matches_banked_oracle(self, pool_tau):
        pool, tau = pool_tau
        kept = remove_similar(pool, tau)
        expected = banked_remove_similar(pool, tau)
        assert [id(c) for c in kept] == [id(c) for c in expected]

    def test_longer_probe_reads_tie_break_position(self):
        # The window at 0 of ``long_`` is an affine copy of ``short`` and
        # the one at 5 an exact copy: both tie within the kernel's
        # tolerance, and the tie-break-low position can read a rounding
        # residue above the profile minimum.
        short = np.array([1.0, -3.0, -3.0, -1.0, 2.0])
        long_ = np.array([5.0, -3.0, -3.0, 1.0, 7.0, 1.0, -3.0, -3.0, -1.0, 2.0])
        profile = SlidingWindowStats(long_[None, :], short.size).profiles(short)[0]
        tau = float(profile[tie_break_argmin(profile)])
        kept, probe = _candidate(short, frequency=5), _candidate(long_, frequency=1)
        assert remove_similar([kept, probe], tau) == [kept, probe]
        assert banked_remove_similar([kept, probe], tau) == [kept, probe]

    def test_single_candidate_kept(self):
        only = _candidate(np.arange(5.0))
        assert remove_similar([only], 3.0) == [only]

    def test_equal_frequencies_keep_input_order(self):
        shape = np.sin(np.linspace(0, 3, 12))
        first, second = _candidate(shape), _candidate(shape.copy())
        assert remove_similar([first, second], 0.5) == [first]
        assert remove_similar([second, first], 0.5) == [second]


class TestDedupWork:
    """Work counter: kernel builds scale with length pairs, not candidates."""

    def _pool(self):
        rng = np.random.default_rng(3)
        lengths = [12, 12, 14, 14, 14, 16, 19, 19, 23, 23, 23, 23]
        return [
            _candidate(rng.standard_normal(n), frequency=1 + i % 4, within=[1.0, 2.0])
            for i, n in enumerate(lengths)
        ]

    def test_one_window_stats_per_length_pair(self, monkeypatch):
        builds = []
        fill = SlidingWindowStats._fill

        def counting_fill(self, prefix, length):
            builds.append(length)
            fill(self, prefix, length)

        monkeypatch.setattr(SlidingWindowStats, "_fill", counting_fill)
        pool = self._pool()
        k = len({c.length for c in pool})
        remove_similar(pool, 2.0)
        # One build per pair La <= Lb: the count the dedup span reports.
        assert len(builds) == k * (k + 1) // 2

    def test_length_pairs_recorded_on_dedup_span(self, rng):
        X, y = _feature_dataset(rng, n_per_class=4, length=40)
        pool = self._pool()
        k = len({c.length for c in pool})
        tracer = Tracer()
        find_distinct(X, y, pool, tracer=tracer)
        spans = [span for root in tracer.roots for span, _ in root.walk()]
        (dedup,) = [span for span in spans if span.name == "dedup"]
        assert dedup.counters["dedup.length_pairs"] == k * (k + 1) // 2


def _feature_dataset(rng, n_per_class=12, length=60):
    """Two classes with distinct embedded bumps."""
    X, y = [], []
    for label, sign in ((0, 1.0), (1, -1.0)):
        for _ in range(n_per_class):
            series = rng.standard_normal(length) * 0.1
            pos = 15 + int(rng.integers(-3, 4))
            series[pos : pos + 16] += sign * np.hanning(16) * 3
            X.append(series)
            y.append(label)
    return np.array(X), np.array(y)


class TestFindDistinct:
    def _candidates(self, rng):
        up = np.hanning(16) * 3
        down = -np.hanning(16) * 3
        return [
            _candidate(up, label=0, frequency=8, within=[0.3, 0.5, 0.7]),
            _candidate(down, label=1, frequency=8, within=[0.4, 0.6]),
            _candidate(rng.standard_normal(16), label=0, frequency=2, within=[1.0]),
        ]

    def test_returns_selection_result(self, rng):
        X, y = _feature_dataset(rng)
        result = find_distinct(X, y, self._candidates(rng))
        assert isinstance(result, SelectionResult)
        assert result.patterns
        assert result.train_features.shape == (X.shape[0], len(result.patterns))

    def test_discriminative_patterns_survive(self, rng):
        X, y = _feature_dataset(rng)
        result = find_distinct(X, y, self._candidates(rng))
        labels = {p.label for p in result.patterns}
        # At least one of the two class-defining bumps must be kept.
        assert labels & {0, 1}

    def test_feature_indices_sequential(self, rng):
        X, y = _feature_dataset(rng)
        result = find_distinct(X, y, self._candidates(rng))
        assert [p.feature_index for p in result.patterns] == list(
            range(len(result.patterns))
        )

    def test_counts_recorded(self, rng):
        X, y = _feature_dataset(rng)
        result = find_distinct(X, y, self._candidates(rng))
        assert result.n_candidates_in == 3
        assert 1 <= result.n_after_dedup <= 3

    def test_candidate_cap_applies(self, rng):
        X, y = _feature_dataset(rng, n_per_class=6)
        candidates = [
            _candidate(rng.standard_normal(16), label=i % 2, frequency=i)
            for i in range(40)
        ]
        result = find_distinct(X, y, candidates, max_candidates=10)
        assert result.n_after_dedup <= 10

    def test_rejects_empty_candidates(self, rng):
        X, y = _feature_dataset(rng, n_per_class=3)
        with pytest.raises(ValueError, match="no candidates"):
            find_distinct(X, y, [])


_CAP_ORDER_SCRIPT = """\
import numpy as np
from repro.core.patterns import PatternCandidate
from repro.core.selection import _cap_candidates
from repro.sax.discretize import SaxParams

rng = np.random.default_rng(99)
labels = ["gun", "point", "noise", "drift"]
candidates = [
    PatternCandidate(
        values=rng.standard_normal(8),
        label=labels[i % 4],
        frequency=i % 7,
        support=1,
        rule_id=i,
        words=("ab",),
        sax_params=SaxParams(8, 4, 4),
        within_distances=np.empty(0),
    )
    for i in range(40)
]
for c in _cap_candidates(candidates, 12):
    print(c.rule_id, c.label, c.frequency)
"""


class TestCapCandidates:
    def test_first_appearance_label_order(self):
        candidates = [
            _candidate(np.arange(8.0), label=label, frequency=f)
            for label, f in [("b", 5), ("a", 9), ("b", 1), ("a", 2), ("c", 7)]
        ]
        capped = _cap_candidates(candidates, 3)
        assert [c.label for c in capped] == ["b", "a", "c"]
        assert [c.frequency for c in capped] == [5, 9, 7]

    def test_no_cap_below_limit(self):
        candidates = [_candidate(np.arange(8.0), label="x")]
        assert _cap_candidates(candidates, 5) is candidates

    def test_order_independent_of_hash_seed(self):
        # String labels once flowed through a set(), so the capped pool
        # depended on PYTHONHASHSEED. Two interpreters with different
        # seeds must now produce the identical pool.
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for seed in ("0", "424242"):
            env = os.environ.copy()
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", _CAP_ORDER_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].strip()
