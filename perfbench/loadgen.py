"""Open-loop load generation and the latency statistics every workload uses.

An open loop sends on a schedule whatever the server does, so a stall
delays every later request and its queue can grow. Each request is
timed from its *scheduled* send time: the wait a late generator imposes
on the caller is part of the latency, and how late the generator ran is
reported on its own (``late``).

A saturation phase (``saturate``) measures what the server sustains: it
keeps a fixed number of requests open, sending the next one as soon as
one resolves, and counts completions per second.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


# A tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

# After its schedule ends, a rung waits this long for open requests; one
# still open then counts as failed.
DRAIN_S = 30.0


def tail(values: Sequence[float]):
    """(percentile, value): the highest percentile with ``TAIL_BEYOND``
    samples above it. With no more samples than that, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def poisson_schedule(rate: float, seconds: float, rng) -> np.ndarray:
    """Send offsets (s) of a Poisson arrival process over ``seconds``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


@dataclass
class Sent:
    """One open-loop request: when it was due, sent, and resolved."""

    due: float
    request: int = 0
    sent: float = 0.0
    submitted: float = 0.0
    done: float = 0.0
    outputs: Optional[list] = None
    error: Optional[BaseException] = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Rung:
    """The result of one fixed-rate step of the ladder."""

    rate: float
    seconds: float
    sent: List[Sent] = field(default_factory=list)
    pending_at_end: int = 0
    # Sending stopped early because the backlog passed max_pending.
    overloaded: bool = False

    @property
    def ok(self) -> List[Sent]:
        return [s for s in self.sent if s.error is None and s.done]

    def latencies_ms(self) -> List[float]:
        return [s.latency * 1e3 for s in self.ok]

    def late_ms(self) -> List[float]:
        return [(s.sent - s.due) * 1e3 for s in self.sent]


@dataclass
class Tally:
    """What one phase measured, as plain numbers: per-request records
    kept through a window would grow the memory peak_rss_mb reads and
    the heap the garbage collector walks."""

    rate: float     # 0 for a saturation phase
    seconds: float
    sent: int = 0
    latencies_ms: List[float] = field(default_factory=list)  # served only
    late_ms: List[float] = field(default_factory=list)
    pending_at_end: int = 0
    overloaded: bool = False

    @classmethod
    def of(cls, rung: Rung) -> "Tally":
        return cls(rung.rate, rung.seconds, len(rung.sent),
                   rung.latencies_ms(), rung.late_ms(),
                   rung.pending_at_end, rung.overloaded)


def run_rung(
    submit: Callable[[dict], Future],
    requests: Sequence[dict],
    rate: float,
    seconds: float,
    rng,
    max_pending: int,
    on_send: Optional[Callable[[Sent, dict], None]] = None,
) -> Rung:
    """Send ``requests`` round-robin on a Poisson schedule at ``rate``.

    The calling thread is the generator. Every send gets its own feed
    dict, built before the schedule starts, so a tracer can tell sends
    apart by dict identity. Futures record their own completion time in
    the thread that resolves them. Once more than ``max_pending``
    requests are open the server is past saturation: sending stops and
    the rung is marked overloaded. After the schedule ends the rung waits
    up to ``DRAIN_S`` for stragglers; one still open then counts as failed.
    """
    schedule = poisson_schedule(rate, seconds, rng)
    sends = [dict(requests[i % len(requests)]) for i in range(len(schedule))]
    rung = Rung(rate, seconds)
    futures: List[Optional[Future]] = []
    resolved: List[None] = []   # appended by callbacks; len() is atomic
    start = time.perf_counter() + 0.005
    for i, offset in enumerate(schedule):
        if len(futures) - len(resolved) > max_pending:
            rung.overloaded = True
            break
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        feeds = sends[i]
        record = Sent(due=due, request=i % len(requests),
                      sent=time.perf_counter())
        rung.sent.append(record)
        if on_send is not None:
            on_send(record, feeds)
        try:
            future = submit(feeds)
        except Exception as exc:  # noqa: BLE001 — a refusal is a result
            record.error = exc
            record.submitted = time.perf_counter()
            futures.append(None)
            continue
        record.submitted = time.perf_counter()
        future.add_done_callback(_stamp_done(record, resolved))
        futures.append(future)
    _collect(rung, futures)
    return rung


def saturate(
    submit: Callable[[dict], Future],
    requests: Sequence[dict],
    concurrency: int,
    seconds: float,
) -> Tuple[Tally, Dict[int, list]]:
    """Keep ``concurrency`` requests open for ``seconds``.

    The calling thread sends the next request as soon as one resolves, so
    the server is never idle for want of work and its queue never holds
    more than ``concurrency``. Each request is timed from its send.
    Completions per second over the phase is the rate the server
    sustains. Only numbers are kept per request, so memory does not grow
    with that rate. Returns the tally and the outputs of each request
    index's first completion.
    """
    tally = Tally(0.0, seconds)
    first: Dict[int, list] = {}
    resolved: List[None] = []   # appended by callbacks; len() is atomic
    slots = threading.BoundedSemaphore(concurrency)

    def on_done(index: int, sent: float) -> Callable[[Future], None]:
        def done(future: Future) -> None:
            end = time.perf_counter()
            if not future.cancelled() and future.exception() is None:
                tally.latencies_ms.append((end - sent) * 1e3)
                first.setdefault(index, future.result())
            resolved.append(None)
            slots.release()

        return done

    deadline = time.perf_counter() + seconds
    while slots.acquire(timeout=max(0.0, deadline - time.perf_counter())):
        sent = time.perf_counter()
        if sent >= deadline:
            slots.release()
            break
        index = tally.sent % len(requests)
        tally.sent += 1
        try:
            future = submit(dict(requests[index]))
        except Exception:  # noqa: BLE001 — a refusal counts as failed
            resolved.append(None)
            slots.release()
            continue
        future.add_done_callback(on_done(index, sent))
    tally.pending_at_end = tally.sent - len(resolved)
    # Every slot back means every request resolved; one still open after
    # DRAIN_S counts as failed.
    drain = time.perf_counter() + DRAIN_S
    for _ in range(concurrency):
        slots.acquire(timeout=max(0.0, drain - time.perf_counter()))
    return tally, first


def _collect(rung: Rung, futures: List[Optional[Future]]) -> None:
    """Wait for every open future of ``rung``; keep each request's first
    outputs for the oracle check."""
    end_of_schedule = time.perf_counter()
    rung.pending_at_end = sum(
        1 for s, f in zip(rung.sent, futures)
        if f is not None and not s.done and s.error is None
    )
    deadline = end_of_schedule + DRAIN_S
    kept = set()
    for record, future in zip(rung.sent, futures):
        if future is None:
            continue
        try:
            outputs = future.result(
                timeout=max(0.0, deadline - time.perf_counter())
            )
        except Exception as exc:  # noqa: BLE001 — counted as failed
            record.error = exc
            continue
        # Only a request's first send can be checked; keeping every
        # output would make memory grow with the rate.
        if record.request not in kept:
            kept.add(record.request)
            record.outputs = outputs


def _stamp_done(record: Sent, resolved: list) -> Callable[[Future], None]:
    def done(_future: Future) -> None:
        record.done = time.perf_counter()
        resolved.append(None)

    return done
