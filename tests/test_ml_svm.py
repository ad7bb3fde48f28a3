import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.ml.svm as svm_module
from repro.ml.svm import SVC, BinarySVM, StandardScaler
from repro.obs import scoped_registry

from tests.oracles import masked_smo_fit

#: Total SMO iterations of the three one-vs-rest machines in
#: ``TestSmoIterationCounter.test_counts_every_binary_fit``.
SMO_ITERATIONS_PINNED = 116


class TestStandardScaler:
    def test_zero_mean_unit_var(self, rng):
        X = rng.standard_normal((50, 4)) * 7 + 3
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_untouched(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z[:, 0], 0.0, atol=1e-12)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fit"):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            StandardScaler().fit(np.zeros(4))


def _blobs(rng, n=60, gap=4.0, d=2):
    X = np.vstack([rng.normal(0, 1, (n, d)), rng.normal(gap, 1, (n, d))])
    y = np.array([-1.0] * n + [1.0] * n)
    return X, y


class TestBinarySVM:
    def test_separable_blobs_linear(self, rng):
        X, y = _blobs(rng)
        svm = BinarySVM(kernel="linear", C=1.0).fit(X, y)
        assert np.mean(svm.predict(X) == y) > 0.97

    def test_decision_sign_matches_predict(self, rng):
        X, y = _blobs(rng)
        svm = BinarySVM(kernel="rbf").fit(X, y)
        scores = svm.decision_function(X)
        np.testing.assert_array_equal(np.sign(scores) >= 0, svm.predict(X) > 0)

    def test_margin_support_vectors_subset(self, rng):
        X, y = _blobs(rng, gap=6.0)
        svm = BinarySVM(kernel="linear").fit(X, y)
        # Well-separated blobs need few support vectors.
        assert svm.support_vectors_.shape[0] < X.shape[0] / 2

    def test_dual_feasibility(self, rng):
        X, y = _blobs(rng)
        svm = BinarySVM(kernel="linear", C=2.0).fit(X, y)
        alpha = svm.alpha_
        assert (alpha >= -1e-9).all() and (alpha <= 2.0 + 1e-9).all()
        assert abs(float(alpha @ y)) < 1e-6

    def test_rejects_bad_labels(self, rng):
        X = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            BinarySVM().fit(X, np.array([0.0, 1.0, 0.0, 1.0]))

    def test_rejects_single_class(self, rng):
        X = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="both classes"):
            BinarySVM().fit(X, np.ones(4))

    def test_rejects_nonpositive_C(self):
        with pytest.raises(ValueError, match="positive"):
            BinarySVM(C=0.0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            BinarySVM().decision_function(np.zeros((1, 2)))

    def test_explicit_gamma(self, rng):
        X, y = _blobs(rng)
        svm = BinarySVM(kernel="rbf", gamma=0.5).fit(X, y)
        assert svm.gamma_ == 0.5


class TestSVC:
    def test_three_class_blobs(self, rng):
        X = np.vstack(
            [rng.normal(0, 0.5, (30, 2)), rng.normal(4, 0.5, (30, 2)), rng.normal([0, 5], 0.5, (30, 2))]
        )
        y = np.repeat(["a", "b", "c"], 30)
        clf = SVC().fit(X, y)
        assert np.mean(clf.predict(X) == y) > 0.95

    def test_xor_needs_rbf(self, rng):
        X = rng.standard_normal((300, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        rbf = SVC(kernel="rbf", C=10.0).fit(X, y)
        lin = SVC(kernel="linear", C=10.0).fit(X, y)
        assert np.mean(rbf.predict(X) == y) > 0.9
        assert np.mean(lin.predict(X) == y) < 0.75

    def test_decision_function_shape(self, rng):
        X = np.vstack([rng.normal(0, 1, (20, 3)), rng.normal(5, 1, (20, 3))])
        y = np.array([0] * 20 + [1] * 20)
        clf = SVC().fit(X, y)
        assert clf.decision_function(X).shape == (40, 2)

    def test_preserves_label_dtype(self, rng):
        X = np.vstack([rng.normal(0, 1, (10, 2)), rng.normal(5, 1, (10, 2))])
        y = np.array(["neg"] * 10 + ["pos"] * 10)
        preds = SVC().fit(X, y).predict(X)
        assert set(preds) <= {"neg", "pos"}

    def test_unscaled_option(self, rng):
        X, _ = _blobs(rng)
        y = np.array([0] * 60 + [1] * 60)
        clf = SVC(scale=False).fit(X, y)
        assert clf.scaler_ is None
        assert np.mean(clf.predict(X) == y) > 0.9

    def test_rejects_single_class(self, rng):
        with pytest.raises(ValueError, match="two classes"):
            SVC().fit(rng.standard_normal((5, 2)), np.zeros(5))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            SVC().predict(np.zeros((1, 2)))


# -- exactness of the incremental SMO solver ----------------------------------

FITTED = ("alpha_", "support_vectors_", "support_coef_")


def assert_same_machine(actual: BinarySVM, expected: BinarySVM) -> None:
    """Bitwise equality of every fitted attribute (the bias by its bytes)."""
    assert actual.iterations_ == expected.iterations_
    assert np.float64(actual.bias_).tobytes() == np.float64(expected.bias_).tobytes()
    assert actual.gamma_ == expected.gamma_
    for name in FITTED:
        a, b = getattr(actual, name), getattr(expected, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@st.composite
def smo_problems(draw):
    n = draw(st.integers(2, 200))
    d = draw(st.integers(1, 4))
    # Integer-grid features give duplicated rows and exact yg ties; the
    # float variant covers generic positions.
    elements = draw(
        st.sampled_from(
            [
                st.integers(-2, 2).map(float),
                st.floats(-50, 50, allow_nan=False, allow_infinity=False),
            ]
        )
    )
    X = draw(arrays(np.float64, (n, d), elements=elements))
    if draw(st.booleans()):
        X[n // 2 :] = X[: n - n // 2]  # every row duplicated
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    y[0], y[-1] = 1.0, -1.0
    return X, y


class TestIncrementalSMO:
    """``BinarySVM.fit`` is bit for bit the mask-rebuilding oracle."""

    @given(
        smo_problems(),
        st.sampled_from(["rbf", "linear"]),
        st.sampled_from([0.01, 1.0, 100.0]),
        st.sampled_from([1, 2, 7, 400]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_oracle(self, problem, kernel, C, max_iter):
        X, y = problem
        actual = BinarySVM(C=C, kernel=kernel, max_iter=max_iter).fit(X, y)
        expected = masked_smo_fit(X, y, C=C, kernel=kernel, max_iter=max_iter)
        assert_same_machine(actual, expected)

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_no_free_vector_bias_fallback(self, kernel):
        # Balanced, overlapping classes with a tiny C put every α at C,
        # so the bias comes from the yg extremes, not from free vectors.
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 2))
        y = np.tile([1.0, -1.0], 20)
        actual = BinarySVM(C=0.01, kernel=kernel).fit(X, y)
        alpha = actual.alpha_
        assert not ((alpha > 1e-8) & (alpha < 0.01 - 1e-8)).any()
        assert_same_machine(actual, masked_smo_fit(X, y, C=0.01, kernel=kernel))

    def test_zero_bias_keeps_its_sign(self):
        # Duplicated rows make yg cancel exactly; the bias fallback then
        # lands on zero, which the gradient form signs negative.
        X = np.full((37, 2), 46.09743531)
        X[2, 0] = 1.71677158
        y = np.array([1.0] + [-1.0] * 3 + [1.0] * 32 + [-1.0])
        actual = BinarySVM().fit(X, y)
        assert np.float64(actual.bias_).tobytes() == np.float64(-0.0).tobytes()
        assert_same_machine(actual, masked_smo_fit(X, y))

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_svc_machines_equal_separate_oracle_fits(self, kernel):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((45, 3))
        y = np.repeat([0, 1, 2], 15)
        clf = SVC(kernel=kernel).fit(X, y)
        Xs = StandardScaler().fit_transform(X)
        for label, machine in zip(clf.classes_, clf.machines_):
            target = np.where(y == label, 1.0, -1.0)
            assert_same_machine(machine, masked_smo_fit(Xs, target, kernel=kernel))

    def test_svc_builds_one_kernel_matrix(self, monkeypatch):
        calls = []
        original = svm_module._kernel_matrix

        def counting(A, B, kernel, gamma):
            calls.append(A.shape[0])
            return original(A, B, kernel, gamma)

        monkeypatch.setattr(svm_module, "_kernel_matrix", counting)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 3))
        y = np.repeat(["a", "b", "c", "d"], 10)
        clf = SVC().fit(X, y)
        assert len(clf.machines_) == 4
        assert calls == [40]


class TestSmoIterationCounter:
    def test_counts_every_binary_fit(self):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(0, 1, (10, 2)), rng.normal(2, 1, (10, 2)), rng.normal([0, 3], 1, (10, 2))])
        y = np.repeat([0, 1, 2], 10)
        with scoped_registry() as reg:
            clf = SVC().fit(X, y)
        total = sum(m.iterations_ for m in clf.machines_)
        assert reg.counter_value("svm.smo_iterations") == total
        # Pinned: the solver's work on this problem is deterministic.
        assert total == SMO_ITERATIONS_PINNED

    def test_binary_fit_adds_its_iterations(self, rng):
        X, y = _blobs(rng, n=15)
        with scoped_registry() as reg:
            machine = BinarySVM().fit(X, y)
        assert reg.counter_value("svm.smo_iterations") == machine.iterations_


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_binary_fit_rejects(self, bad, rng):
        X, y = _blobs(rng, n=5)
        X[3, 1] = bad
        with pytest.raises(ValueError, match=r"^non-finite: X contains 1 non-finite"):
            BinarySVM().fit(X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_binary_predict_rejects(self, bad, rng):
        X, y = _blobs(rng, n=5)
        machine = BinarySVM().fit(X, y)
        X[0, 0] = bad
        for method in (machine.predict, machine.decision_function):
            with pytest.raises(ValueError, match=r"^non-finite"):
                method(X)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_svc_fit_rejects(self, bad, rng):
        X, _ = _blobs(rng, n=5)
        X[2, 0] = bad
        with pytest.raises(ValueError, match=r"^non-finite: X contains 1 non-finite"):
            SVC().fit(X, np.repeat([0, 1], 5))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_svc_predict_rejects(self, bad, rng):
        X, _ = _blobs(rng, n=5)
        clf = SVC().fit(X, np.repeat([0, 1], 5))
        X[1, 1] = bad
        for method in (clf.predict, clf.decision_function):
            with pytest.raises(ValueError, match=r"^non-finite"):
                method(X)
