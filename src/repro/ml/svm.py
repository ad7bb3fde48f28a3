"""Support vector machine trained with SMO (maximal-violating-pair).

The paper classifies the pattern-distance feature vectors with an SVM
(§3.1). No external ML library is available here, so this module
implements a soft-margin kernel SVM from scratch:

* the dual problem is solved by sequential minimal optimization with
  LIBSVM's first-order working-set selection (maximal violating pair),
  its state updated in place so an iteration costs a fixed number of
  numpy calls (see :func:`_smo`);
* linear and RBF kernels;
* multi-class via one-vs-rest on the decision values;
* a :class:`StandardScaler` companion, since pattern distances live on
  very different scales across patterns.
"""

from __future__ import annotations

import numpy as np

from ..base import check_finite
from ..obs.metrics import registry

__all__ = ["StandardScaler", "BinarySVM", "SVC"]


class StandardScaler:
    """Per-feature standardization to zero mean / unit variance."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"expected 2-D data, got shape {X.shape}")
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale < 1e-12] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler used before fit()")
        return (np.asarray(X, dtype=float) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit on ``X`` and return the transformed copy."""
        return self.fit(X).transform(X)


def _kernel_matrix(
    A: np.ndarray, B: np.ndarray, kernel: str, gamma: float
) -> np.ndarray:
    if kernel == "linear":
        return A @ B.T
    if kernel == "rbf":
        a2 = np.sum(A * A, axis=1)[:, None]
        b2 = np.sum(B * B, axis=1)[None, :]
        d2 = a2 + b2 - 2.0 * (A @ B.T)
        np.maximum(d2, 0.0, out=d2)
        return np.exp(-gamma * d2)
    raise ValueError(f"unknown kernel {kernel!r}")


def _resolve_gamma(gamma: float | str, X: np.ndarray) -> float:
    """The RBF width: ``'scale'`` is ``1 / (d · Var(X))``, else ``gamma`` itself."""
    if isinstance(gamma, str):
        if gamma != "scale":
            raise ValueError(f"unknown gamma spec {gamma!r}")
        var = X.var()
        return 1.0 / (X.shape[1] * var) if var > 1e-12 else 1.0
    return float(gamma)


def _smo(
    K: np.ndarray, y: np.ndarray, C: float, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Solve the dual by SMO with maximal-violating-pair selection.

    Returns ``(alpha, yg, up, low, iterations)``. The solver state is
    ``yg = −y ⊙ ∇`` itself rather than the gradient ``∇ = Qα − e``: a
    step moves it by ``−t·(K[:, i] − K[:, j])``, which is bitwise the
    gradient update ``+t·y ⊙ (…)`` negated by ``−y`` because ``y = ±1``
    and IEEE rounding is sign-symmetric (up to the sign of an exact
    zero, which no comparison sees). The ``I_up``/``I_low`` masks
    are kept as additive penalties (0 inside the set, ∓∞ outside) that
    change only at the two rows a step moves, and the pair is the
    argmax/argmin of ``yg`` plus its penalty — the same first index as
    the arg-extremes over the masked subsets, since ``x + 0.0 == x``.
    Each iteration thus costs a fixed handful of numpy calls whatever
    ``n`` is; α lives in a Python list because only two of its entries
    are touched per step.
    """
    n = y.shape[0]
    KT = np.ascontiguousarray(K.T)  # row k is the column K[:, k]
    diag = K.diagonal().tolist()
    ys = y.tolist()
    alpha = [0.0] * n
    yg = y.copy()  # −y ⊙ ∇ with ∇ = −e at α = 0
    inf = float("inf")
    # I_up: α can increase along +y; I_low: can decrease. At α = 0 these
    # are the positive and the negative rows.
    pen_up = np.where(y > 0, 0.0, -inf)
    pen_low = np.where(y > 0, inf, 0.0)
    scores = np.empty(n)
    step = np.empty(n)
    it = 0
    for it in range(1, max_iter + 1):
        i = int(np.add(yg, pen_up, out=scores).argmax())
        j = int(np.add(yg, pen_low, out=scores).argmin())
        if pen_up[i] or pen_low[j]:  # an empty set: nothing can move
            break
        gap = float(yg[i]) - float(yg[j])
        if gap < tol:
            break
        # Two-variable subproblem along the feasible direction
        # (α_i moves by +y_i·t, α_j by −y_j·t, preserving yᵀα = 0).
        quad = diag[i] + diag[j] - 2.0 * KT[j, i]
        if quad <= 1e-12:
            quad = 1e-12
        delta = gap / quad
        t_max_i = (C - alpha[i]) if ys[i] > 0 else alpha[i]
        t_max_j = alpha[j] if ys[j] > 0 else (C - alpha[j])
        t = min(delta, t_max_i, t_max_j)
        if t <= 0:
            break
        alpha[i] += ys[i] * t
        alpha[j] -= ys[j] * t
        np.subtract(KT[i], KT[j], out=step)
        step *= t
        yg -= step
        for k in (i, j):
            a = alpha[k]
            can_grow, can_shrink = (a < C, a > 0) if ys[k] > 0 else (a > 0, a < C)
            pen_up[k] = 0.0 if can_grow else -inf
            pen_low[k] = 0.0 if can_shrink else inf
    return np.array(alpha), yg, pen_up == 0.0, pen_low == 0.0, it


class BinarySVM:
    """Soft-margin binary SVM; labels must be -1 / +1.

    Solves ``min 0.5 αᵀQα − eᵀα`` s.t. ``0 ≤ α ≤ C``, ``yᵀα = 0`` with
    ``Q_ij = y_i y_j K(x_i, x_j)`` by SMO. The kernel matrix is
    precomputed — training sets in this problem are small (UCR scale).
    """

    def __init__(
        self,
        C: float = 1.0,
        kernel: str = "rbf",
        gamma: float | str = "scale",
        tol: float = 1e-3,
        max_iter: int = 20000,
    ) -> None:
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = float(C)
        self.kernel = kernel
        self.gamma = gamma
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.alpha_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.support_vectors_: np.ndarray | None = None
        self.support_coef_: np.ndarray | None = None
        self.gamma_: float = 1.0
        self.iterations_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BinarySVM":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and y (n,)")
        check_finite(X)
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if np.unique(y).size < 2:
            raise ValueError("both classes must be present")
        gamma = _resolve_gamma(self.gamma, X)
        return self._fit_kernel(X, y, _kernel_matrix(X, X, self.kernel, gamma), gamma)

    def _fit_kernel(
        self, X: np.ndarray, y: np.ndarray, K: np.ndarray, gamma: float
    ) -> "BinarySVM":
        """Fit on validated ``X``/``y`` given their kernel matrix ``K``.

        :class:`SVC` shares one ``K`` (built with the resolved
        ``gamma``) across its one-vs-rest machines through this path.
        """
        self.gamma_ = gamma
        C = self.C
        alpha, yg, up, low, it = _smo(K, y, C, self.tol, self.max_iter)
        self.iterations_ = it
        registry().inc("svm.smo_iterations", it)

        # Bias from the KKT conditions: average over free vectors.
        free = (alpha > 1e-8) & (alpha < C - 1e-8)
        if free.any():
            decision_wo_bias = (alpha * y) @ K
            self.bias_ = float(np.mean(y[free] - decision_wo_bias[free]))
        else:
            # Signed zeros: an exact cancellation leaves +0.0 in `yg`,
            # where −y ⊙ ∇ gives −0.0 on positive rows. The gradient
            # itself is never −0.0 (it starts at −1 and only gains
            # sums), so "+ 0.0" recovers it bit for bit, and the bias
            # keeps the sign of zero the gradient form gives it.
            yg = -y * (-y * yg + 0.0)
            hi = yg[up].max() if up.any() else 0.0
            lo = yg[low].min() if low.any() else 0.0
            self.bias_ = float((hi + lo) / 2.0)

        support = alpha > 1e-8
        self.alpha_ = alpha
        self.support_vectors_ = X[support]
        self.support_coef_ = (alpha * y)[support]
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw decision value(s) for every row of ``X``."""
        if self.support_vectors_ is None or self.support_coef_ is None:
            raise RuntimeError("BinarySVM used before fit()")
        X = np.asarray(X, dtype=float)
        check_finite(X)
        if self.support_vectors_.shape[0] == 0:
            return np.full(X.shape[0], self.bias_)
        K = _kernel_matrix(X, self.support_vectors_, self.kernel, self.gamma_)
        return K @ self.support_coef_ + self.bias_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        return np.where(self.decision_function(X) >= 0.0, 1.0, -1.0)


class SVC:
    """Multi-class SVM via one-vs-rest over :class:`BinarySVM`.

    Input features are standardized internally (``scale=True``), which
    the pattern-distance feature space needs since distances to long
    patterns dominate distances to short ones.
    """

    def __init__(
        self,
        C: float = 1.0,
        kernel: str = "rbf",
        gamma: float | str = "scale",
        tol: float = 1e-3,
        max_iter: int = 20000,
        scale: bool = True,
    ) -> None:
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_iter = max_iter
        self.scale = scale
        self.classes_: np.ndarray | None = None
        self.machines_: list[BinarySVM] = []
        self.scaler_: StandardScaler | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVC":
        """Fit the model on training series ``X`` with labels ``y``.

        Every one-vs-rest machine sees the same (scaled) ``X`` and hence
        the same resolved gamma and kernel matrix, so ``K`` is computed
        once and shared by all of them.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of instances")
        if X.ndim != 2 or y.ndim != 1:
            raise ValueError("X must be (n, d) and y (n,)")
        check_finite(X)
        if self.scale:
            self.scaler_ = StandardScaler()
            X = self.scaler_.fit_transform(X)
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            raise ValueError("need at least two classes")
        gamma = _resolve_gamma(self.gamma, X)
        K = _kernel_matrix(X, X, self.kernel, gamma)
        self.machines_ = []
        for label in self.classes_:
            target = np.where(y == label, 1.0, -1.0)
            machine = BinarySVM(
                C=self.C,
                kernel=self.kernel,
                gamma=self.gamma,
                tol=self.tol,
                max_iter=self.max_iter,
            )
            machine._fit_kernel(X, target, K, gamma)
            self.machines_.append(machine)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw decision value(s) for every row of ``X``."""
        if self.classes_ is None:
            raise RuntimeError("SVC used before fit()")
        X = np.asarray(X, dtype=float)
        if self.scaler_ is not None:
            X = self.scaler_.transform(X)
        return np.column_stack([m.decision_function(X) for m in self.machines_])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        scores = self.decision_function(X)
        assert self.classes_ is not None
        return self.classes_[np.argmax(scores, axis=1)]
