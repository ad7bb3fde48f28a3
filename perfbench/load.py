"""Load generators for the serving phases.

Both generators drive anything with a ``submit(series) -> Future``
method (both serving tiers have one) from a single generator thread.

* :func:`closed_loop` keeps a fixed number of requests in flight: a new
  request is sent only when one completes, so a slower server receives
  less load. It measures throughput.
* :func:`open_loop` sends at a fixed rate whatever the server does.
  Each request's latency is timed from the instant it was *due*, not
  from when the generator got round to sending it, so a stall in the
  process is charged to every request it delayed; how late the
  generator ran is reported separately as its lag.

Closed-loop throughput is counted in equal windows of the phase and
reported as their median, so one stall of the host moves one window.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: How long a phase may wait for its last results before giving up.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class PhaseResult:
    """What one load phase sent and got back."""

    attempted: int = 0
    failed: int = 0
    #: Closed loop: when each OK result completed, seconds from the start.
    completions: list[float] = field(default_factory=list)
    #: Open loop: latency from due time of each OK result.
    latencies_ms: list[float] = field(default_factory=list)
    #: Open loop: how late each request was sent.
    lags_ms: list[float] = field(default_factory=list)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation), 0 for no values."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def window_rates(completions: list[float], seconds: float, windows: int) -> list[float]:
    """Completions per second in each of ``windows`` equal windows of the phase."""
    counts = np.histogram(completions, bins=windows, range=(0.0, seconds))[0]
    return (counts * (windows / seconds)).tolist()


def due_time(start: float, index: int, rate: float) -> float:
    """When request ``index`` of an open loop starting at ``start`` is due."""
    return start + index / rate


def _run_in_thread(target, name: str) -> None:
    """Run ``target`` on one generator thread and re-raise its error."""
    errors: list[BaseException] = []

    def body() -> None:
        try:
            target()
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    thread = threading.Thread(target=body, name=name, daemon=True)
    thread.start()
    thread.join()
    if errors:
        raise errors[0]


def closed_loop(
    submit,
    rows: np.ndarray,
    seconds: float,
    *,
    in_flight: int = 64,
    clock=time.perf_counter,
) -> PhaseResult:
    """Keep ``in_flight`` requests outstanding for ``seconds``.

    Requests still in flight when the phase ends are waited for and
    checked; their completion times fall outside the phase.
    """
    result = PhaseResult()
    slots = threading.Semaphore(in_flight)
    lock = threading.Lock()
    start = clock()
    end = start + seconds

    def on_done(future) -> None:
        ok = future.result().ok
        done = clock() - start
        with lock:
            if ok:
                result.completions.append(done)
            else:
                result.failed += 1
        slots.release()

    def generate() -> None:
        i = 0
        while clock() < end:
            slots.acquire()
            future = submit(rows[i % len(rows)])
            result.attempted += 1
            future.add_done_callback(on_done)
            i += 1
        for _ in range(in_flight):
            if not slots.acquire(timeout=DRAIN_TIMEOUT_S):
                raise TimeoutError("closed loop: requests still in flight at drain timeout")

    _run_in_thread(generate, "perfbench-closed-loop")
    return result


def open_loop(
    submit,
    rows: np.ndarray,
    count: int,
    *,
    rate: float,
    clock=time.perf_counter,
    sleep=time.sleep,
) -> PhaseResult:
    """Send ``count`` requests at ``rate`` per second, on schedule.

    Latency is completion time minus due time; lag is send time minus
    due time. Failed requests are counted and have no latency.
    """
    result = PhaseResult()
    lock = threading.Lock()
    recorded = threading.Semaphore(0)

    def record(due: float, future) -> None:
        ok = future.result().ok
        done = clock()
        with lock:
            if ok:
                result.latencies_ms.append((done - due) * 1000.0)
            else:
                result.failed += 1
        recorded.release()

    def generate() -> None:
        start = clock()
        for i in range(count):
            due = due_time(start, i, rate)
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            result.lags_ms.append((clock() - due) * 1000.0)
            submit(rows[i % len(rows)]).add_done_callback(
                lambda future, due=due: record(due, future)
            )
        result.attempted = count
        # Wait for the callbacks, not the futures: a future's waiters
        # wake before its callbacks run.
        for _ in range(count):
            if not recorded.acquire(timeout=DRAIN_TIMEOUT_S):
                raise TimeoutError("open loop: results missing at drain timeout")

    _run_in_thread(generate, "perfbench-open-loop")
    return result
