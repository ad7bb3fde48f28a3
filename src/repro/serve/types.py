"""Request/response types and input validation for the serving layer.

The serving contract is *typed results, not exceptions*: a malformed
series, a missed deadline or a mid-batch failure each produce a
:class:`PredictionResult` carrying a :class:`ResultStatus` and an error
code/message, so one bad request can never poison the rest of its
micro-batch or tear down the worker loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..base import NON_FINITE, non_finite_message

__all__ = [
    "ResultStatus",
    "PredictionRequest",
    "PredictionResult",
    "validate_series",
]


class ResultStatus(str, enum.Enum):
    """Terminal state of one prediction request."""

    OK = "ok"
    #: Input rejected before it reached the model (see error_code).
    INVALID = "invalid"
    #: Deadline expired before the model ran — graceful degradation,
    #: the caller gets a typed miss instead of a hung future.
    TIMEOUT = "timeout"
    #: The model itself failed mid-batch; the message carries the
    #: exception type and text.
    ERROR = "error"
    #: Admission control rejected the request at submit time: the
    #: estimated queue wait (queue depth × per-request latency) exceeded
    #: the latency budget, or a shard queue hit its hard cap. The
    #: request never occupies a queue slot — load is shed with a typed
    #: result instead of unbounded queueing.
    OVERLOAD = "overload"


@dataclass
class PredictionRequest:
    """One enqueued series plus its bookkeeping.

    ``request_id`` is the correlation token (``"req-N"``) stamped onto
    spans, flight-recorder entries and structured log lines, and
    returned in the result. ``deadline`` is an absolute
    ``time.monotonic()`` instant (``None`` = no deadline);
    ``enqueued_at`` feeds the queue-wait and latency histograms.
    """

    series: np.ndarray
    request_id: str
    deadline: float | None = None
    enqueued_at: float = 0.0


@dataclass
class PredictionResult:
    """Typed outcome of one request.

    ``label`` is only meaningful when ``status`` is ``OK``;
    ``error_code`` / ``error_message`` are only set for ``INVALID`` and
    ``ERROR`` results. ``deadline_missed`` marks OK results that were
    delivered after their deadline (computed, but late). ``request_id``
    is the caller's correlation token — quote it to
    ``GET /debug/requests?id=…`` on the admin endpoint to retrieve the
    flight-recorder entry of a slow or failed request. ``batch_id``
    names the micro-batch that carried the request (``None`` for
    requests rejected before batching).
    """

    request_id: str
    status: ResultStatus
    label: object = None
    error_code: str | None = None
    error_message: str | None = None
    deadline_missed: bool = False
    latency_ms: float = 0.0
    batch_id: int | None = None
    #: Which shard of a sharded tier answered (``None`` single-process,
    #: or for requests rejected before routing).
    shard: int | None = None
    #: Version of the model that produced (or rejected) this result —
    #: during a hot-swap, results computed by the outgoing model carry
    #: the outgoing version, so callers can always attribute a
    #: prediction to the exact artifact that made it.
    model_version: str | None = None
    features: np.ndarray | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status is ResultStatus.OK


def validate_series(series, expected_length: int | None = None):
    """Validate one raw input series for serving.

    Returns ``(array, None, None)`` on success or
    ``(None, error_code, error_message)`` on rejection. Codes:

    * ``bad-dtype`` — not convertible to a float array;
    * ``bad-shape`` — not 1-D;
    * ``bad-length`` — fewer than 2 points, or (when the model records
      its training length) a length mismatch;
    * ``non-finite`` — NaN or infinity anywhere in the series.
    """
    try:
        values = np.asarray(series, dtype=float)
    except (TypeError, ValueError) as exc:
        return None, "bad-dtype", f"series is not numeric: {exc}"
    if values.ndim != 1:
        return None, "bad-shape", f"series must be 1-D, got shape {values.shape}"
    if values.size < 2:
        return None, "bad-length", f"series needs >= 2 points, got {values.size}"
    if expected_length is not None and values.size != expected_length:
        return (
            None,
            "bad-length",
            f"series has {values.size} points, model expects {expected_length}",
        )
    message = non_finite_message(values, "series")
    if message is not None:
        return None, NON_FINITE, message
    return values, None, None
