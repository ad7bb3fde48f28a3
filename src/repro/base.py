"""Unified estimator protocol and parameter-introspection mixin.

Every classifier in this package — :class:`~repro.core.rpm.RPMClassifier`
and all baselines — follows one contract:

* construction takes configuration as **keyword arguments only** and
  stores each argument verbatim under the same attribute name;
* ``fit(X, y)`` learns state into trailing-underscore attributes and
  returns ``self``;
* ``predict(X)`` labels every row of a 2-D series matrix.

:class:`BaseEstimator` derives ``get_params()`` / ``set_params()`` /
``clone()`` from that contract by introspecting the ``__init__``
signature (the sklearn recipe), which is what lets
:mod:`repro.evaluation` and :mod:`repro.ml.crossval` re-instantiate a
fresh, unfitted copy of any estimator without knowing its class.

:func:`keyword_only` is the one-release migration shim: constructors
used to accept leading positional arguments, and the decorator keeps
those calls working while emitting a :class:`DeprecationWarning`.

:func:`check_finite` is the shared input contract for NaN and
infinity: estimators raise ``ValueError("non-finite: ...")`` and the
serving layer returns the same ``non-finite`` code as a typed result.
"""

from __future__ import annotations

import functools
import inspect
import warnings
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "NON_FINITE",
    "Estimator",
    "BaseEstimator",
    "check_finite",
    "clone",
    "keyword_only",
    "non_finite_message",
]

#: Reason code for an input holding NaN or infinity. Serving rejects
#: such a series with this code; ``fit``/``transform``/``predict``
#: raise a :class:`ValueError` whose message starts with it.
NON_FINITE = "non-finite"


def non_finite_message(values: np.ndarray, what: str) -> str | None:
    """``None`` when every value is finite, else a message counting the bad ones."""
    bad = int(values.size - np.count_nonzero(np.isfinite(values)))
    return f"{what} contains {bad} non-finite values" if bad else None


def check_finite(values: np.ndarray, what: str = "X") -> None:
    """Raise ``ValueError("non-finite: ...")`` when ``values`` holds NaN or infinity."""
    message = non_finite_message(values, what)
    if message is not None:
        raise ValueError(f"{NON_FINITE}: {message}")


@runtime_checkable
class Estimator(Protocol):
    """Structural type of every classifier in the package."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Estimator": ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...

    def get_params(self) -> dict: ...

    def set_params(self, **params) -> "Estimator": ...


def keyword_only(*names: str):
    """Route legacy positional constructor arguments through a shim.

    ``names`` is the historical positional order. A call that still
    passes positional arguments gets them mapped onto those names with
    a :class:`DeprecationWarning`; keyword calls pass through untouched.
    ``functools.wraps`` keeps the wrapped signature discoverable, so
    :class:`BaseEstimator` introspection sees the real parameter list.
    """

    def decorate(init):
        @functools.wraps(init)
        def wrapper(self, *args, **kwargs):
            if args:
                if len(args) > len(names):
                    raise TypeError(
                        f"{type(self).__name__}() takes at most {len(names)} "
                        f"legacy positional arguments ({', '.join(names)}), "
                        f"got {len(args)}"
                    )
                warnings.warn(
                    f"passing {type(self).__name__} configuration positionally "
                    f"is deprecated and will be removed; use keyword arguments "
                    f"({', '.join(names[: len(args)])})",
                    DeprecationWarning,
                    stacklevel=2,
                )
                for name, value in zip(names, args):
                    if name in kwargs:
                        raise TypeError(
                            f"{type(self).__name__}() got multiple values for "
                            f"argument {name!r}"
                        )
                    kwargs[name] = value
            return init(self, **kwargs)

        return wrapper

    return decorate


class BaseEstimator:
    """Mixin deriving sklearn-style parameter handling from ``__init__``.

    Subclasses must store every constructor argument verbatim under the
    same attribute name (resolved or derived state goes elsewhere —
    e.g. a ``trace`` argument is kept as ``self.trace`` even though the
    resolved tracer lives on ``self.tracer``).
    """

    @classmethod
    def _param_names(cls) -> tuple[str, ...]:
        """Constructor argument names, in signature order."""
        signature = inspect.signature(cls.__init__)
        return tuple(
            name
            for name, parameter in signature.parameters.items()
            if name != "self"
            and parameter.kind
            in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
        )

    def get_params(self) -> dict:
        """Constructor arguments as a ``{name: current value}`` dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        """Update constructor arguments in place; returns ``self``.

        Unknown names raise immediately — a typo must not silently
        create a dead attribute.
        """
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def clone(self) -> "BaseEstimator":
        """A fresh, unfitted estimator with identical configuration."""
        return type(self)(**self.get_params())


def clone(estimator):
    """Fresh, unfitted copy of any estimator following the protocol.

    Works on :class:`BaseEstimator` subclasses and on anything exposing
    a ``clone()`` method or a ``get_params()`` dict.
    """
    method = getattr(estimator, "clone", None)
    if callable(method):
        return method()
    getter = getattr(estimator, "get_params", None)
    if callable(getter):
        return type(estimator)(**getter())
    raise TypeError(
        f"cannot clone {type(estimator).__name__}: it exposes neither "
        f"clone() nor get_params()"
    )
