"""Sharded multi-process serving with zero-copy shared-memory weights.

A :class:`ShardedServer` scales the single-process serving stack
(:class:`~repro.runtime.batching.BatchingServer`) across K worker
*processes*. Each worker rebuilds the same deterministic
:class:`~repro.runtime.executor.ExecutionPlan` from the serialized source
graph, then maps the model's weights out of one shared
:class:`~repro.runtime.weight_store.WeightStore` segment, zero-copy. K
replicas therefore hold K arena pools but exactly *one* copy of the
weights (persisted to disk across server runs, keyed like the compile
cache).

The front end mirrors ``BatchingServer``'s contract:

* :meth:`submit` validates feeds at the door and returns a future;
* a dispatcher thread gathers dynamic batches under the same
  size/delay policy, then ships each batch to a replica chosen by the
  configured policy (``round-robin`` or ``least-outstanding``, both
  capacity-capped so one slow replica cannot absorb the whole queue);
* every accepted request resolves — :meth:`stop` drains the queue, and a
  crashed or hung replica's in-flight requests are re-dispatched (a hang
  is converted into a crash by the watchdog's ``request_timeout_s``) while
  the worker is respawned. If no replica is available the parent executes
  the batch itself over the same shared :class:`PlanState`, so the
  guarantee holds even with every worker down.

Outputs are bit-identical to a serial replay of the same requests through
one :class:`~repro.runtime.session.InferenceSession`: workers replay the
same plans on the same weight bytes, and batch lanes are bit-identical to
unbatched replays by the batched-plan guarantee.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import multiprocessing as mp

import numpy as np

from repro.errors import ExecutionError
from repro.frontends.serialize import graph_from_dict, graph_to_dict
from repro.graph.graph import Graph
from repro.graph.lowering import lower_graph
from repro.runtime.executor import PlanConfig
from repro.runtime.profiler import window_percentiles
from repro.runtime.session import (
    DEFAULT_BATCH_BUCKETS,
    DEFAULT_MAX_POOL,
    InferenceSession,
    PlanState,
    resolve_feeds_by_name,
)
from repro.runtime.weight_store import WeightManifest, WeightStore
from repro.te.tensor import Tensor

Feeds = Union[Mapping[Tensor, np.ndarray], Mapping[str, np.ndarray]]

# Request latencies (submit -> resolve) kept for percentile reporting.
LATENCY_WINDOW = 4096

# How often the idle dispatcher re-checks for shutdown.
_IDLE_POLL_S = 0.02

# Watchdog sweep interval (hang detection granularity).
_WATCHDOG_POLL_S = 0.05

# How long start() waits for every worker to map weights and report ready.
_READY_TIMEOUT_S = 120.0


# ---- dispatch policies ------------------------------------------------------


def pick_round_robin(last: int, outstanding: Sequence[Optional[int]]) -> int:
    """Next alive replica after ``last`` (``None`` marks a dead replica)."""
    n = len(outstanding)
    for i in range(1, n + 1):
        idx = (last + i) % n
        if outstanding[idx] is not None:
            return idx
    raise ExecutionError("no alive replica to dispatch to")


def pick_least_outstanding(
    last: int, outstanding: Sequence[Optional[int]]
) -> int:
    """Alive replica with the fewest in-flight requests; round-robin ties."""
    alive = [o for o in outstanding if o is not None]
    if not alive:
        raise ExecutionError("no alive replica to dispatch to")
    best = min(alive)
    n = len(outstanding)
    for i in range(1, n + 1):
        idx = (last + i) % n
        if outstanding[idx] == best:
            return idx
    raise ExecutionError("no alive replica to dispatch to")


_POLICIES = {
    "round-robin": pick_round_robin,
    "least-outstanding": pick_least_outstanding,
}


# ---- worker process ---------------------------------------------------------


@dataclass
class WorkerConfig:
    """Plan/session knobs shipped to every worker (picklable)."""

    config: PlanConfig = PlanConfig()
    batch_buckets: Tuple[int, ...] = DEFAULT_BATCH_BUCKETS
    max_pool: int = DEFAULT_MAX_POOL
    # Profile collection: when on, every worker measures per-step wall
    # time and flushes it to the profile store rooted at profile_dir
    # (None honours $REPRO_CACHE_DIR) — the store's file lock makes the
    # concurrent worker flushes merge instead of clobber.
    collect_profiles: bool = False
    profile_dir: Optional[str] = None
    # Fault-injection hook for the hang tests: while the flag file exists,
    # every batch sleeps this long before executing (long enough for the
    # watchdog to declare the worker hung and kill it).
    fault_sleep_s: float = 0.0
    fault_flag_path: Optional[str] = None


def _rss_bytes() -> int:
    """Resident set size of this process (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _session_stats(session: InferenceSession) -> dict:
    pct = session.latency_percentiles()
    state = session.arena_state
    return {
        "requests": state.request_count,
        "request_seconds": state.request_seconds,
        "p50_us": pct["p50"] * 1e6,
        "p95_us": pct["p95"] * 1e6,
        "p99_us": pct["p99"] * 1e6,
        "batches": state.batches_executed,
        "mean_occupancy": session.mean_batch_occupancy,
        "arenas_allocated": state.arenas_allocated,
        "arenas_trimmed": state.arenas_trimmed,
        "pool_high_water": state.pool_high_water,
        "rss_bytes": _rss_bytes(),
    }


def _worker_main(
    index: int,
    graph_doc: dict,
    manifest: WeightManifest,
    config: WorkerConfig,
    conn,
) -> None:
    """Replica body: rebuild the plan, map shared weights, serve batches.

    Protocol (over the duplex pipe): the worker sends ``("ready", index,
    info)`` once serving; the parent sends ``("batch", id, feeds_list)``
    (name-keyed feeds) and receives ``("result", id, outputs)`` or
    ``("error", id, message)``; ``("stats",)`` round-trips session
    metrics; ``None`` asks for a clean exit, acknowledged with ``("bye",
    index, None)``.
    """
    store = None
    try:
        store = WeightStore.attach(manifest)
        graph = graph_from_dict(graph_doc)
        program = lower_graph(graph)
        plan_state = PlanState(
            program, batch_buckets=config.batch_buckets, config=config.config
        )
        weights = store.weights_by_name()
        plan_state.bind_weights(weights)
        session = InferenceSession.from_plan_state(
            plan_state,
            name=f"{program.name}[{index}]",
            max_pool=config.max_pool,
            collect_profiles=config.collect_profiles,
            profile_store=config.profile_dir,
        )
        # Zero-copy accounting: a weight whose bound value is not the shm
        # view itself was copied into this replica (should never happen —
        # the store packs execution-dtype contiguous arrays).
        private = 0
        for t, bound in plan_state.weight_feeds.items():
            if bound is not weights.get(t.name):
                private += bound.nbytes
        conn.send(("ready", index, {
            "pid": os.getpid(),
            "weight_bytes_mapped": store.total_bytes,
            "weight_private_bytes": private,
            "rss_bytes": _rss_bytes(),
        }))
    except BaseException as exc:  # noqa: BLE001 — forwarded to parent
        try:
            conn.send(("fatal", index, repr(exc)))
        except OSError:
            pass
        if store is not None:
            store.close()
        return

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent is gone
            if msg is None:
                conn.send(("bye", index, None))
                break
            kind = msg[0]
            if kind == "batch":
                _, batch_id, feeds_list = msg
                if (
                    config.fault_sleep_s > 0.0
                    and config.fault_flag_path
                    and os.path.exists(config.fault_flag_path)
                ):
                    time.sleep(config.fault_sleep_s)
                try:
                    results = session.run_batch_by_name(feeds_list)
                    conn.send(("result", batch_id, results))
                except Exception as exc:  # noqa: BLE001 — forwarded
                    conn.send(("error", batch_id, repr(exc)))
            elif kind == "stats":
                conn.send(("stats", index, _session_stats(session)))
    finally:
        if config.collect_profiles:
            session.flush_profiles()
        store.close()


# ---- parent-side bookkeeping ------------------------------------------------


@dataclass
class _Pending:
    """One queued request: resolved feeds, its future, and arrival time."""

    feeds: Mapping[Tensor, np.ndarray]
    future: "Future[List[np.ndarray]]"
    enqueued: float = field(default_factory=time.perf_counter)
    redispatched: bool = False


@dataclass
class _InFlight:
    """One batch shipped to a replica, until its result (or its funeral)."""

    members: List[_Pending]
    sent_at: float = field(default_factory=time.perf_counter)


class _Replica:
    """Parent-side handle for one worker process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[mp.process.BaseProcess] = None
        self.conn = None
        self.receiver: Optional[threading.Thread] = None
        self.send_lock = threading.Lock()
        self.in_flight: Dict[int, _InFlight] = {}
        self.alive = False
        self.clean_exit = False
        self.ready = threading.Event()
        self.info: dict = {}
        self.stats: dict = {}
        self.stats_event = threading.Event()
        self.fatal: Optional[str] = None
        self.crashes = 0
        self.requests_served = 0

    @property
    def outstanding(self) -> int:
        return sum(len(b.members) for b in self.in_flight.values())


class ShardedServer:
    """K-process sharded serving over one shared weight segment."""

    def __init__(
        self,
        graph: Graph,
        weights: Mapping[str, np.ndarray],
        replicas: int = 2,
        policy: str = "least-outstanding",
        max_batch_size: int = 8,
        max_queue_delay_ms: float = 2.0,
        config: PlanConfig = PlanConfig(),
        batch_buckets: Sequence[int] = DEFAULT_BATCH_BUCKETS,
        max_pool: int = DEFAULT_MAX_POOL,
        request_timeout_s: Optional[float] = 30.0,
        max_outstanding_batches: int = 2,
        cache_dir: Optional[str] = None,
        collect_profiles: bool = False,
        profile_dir: Optional[str] = None,
        fault_sleep_s: float = 0.0,
        fault_flag_path: Optional[str] = None,
    ) -> None:
        if replicas < 1:
            raise ExecutionError(f"replicas must be >= 1, got {replicas}")
        if policy not in _POLICIES:
            raise ExecutionError(
                f"unknown dispatch policy {policy!r}; choose one of "
                f"{sorted(_POLICIES)}"
            )
        if max_batch_size < 1:
            raise ExecutionError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        self.graph = graph
        self.replicas = replicas
        self.policy = policy
        self.max_batch_size = max_batch_size
        self.max_queue_delay_ms = max_queue_delay_ms
        self._delay_s = max_queue_delay_ms / 1e3
        self.request_timeout_s = request_timeout_s
        self.max_outstanding_batches = max_outstanding_batches
        self._graph_doc = graph_to_dict(graph)
        self._config = WorkerConfig(
            config=config,
            batch_buckets=tuple(sorted(set(int(b) for b in batch_buckets))),
            max_pool=max_pool,
            collect_profiles=collect_profiles,
            profile_dir=profile_dir,
            fault_sleep_s=fault_sleep_s,
            fault_flag_path=fault_flag_path,
        )

        # The parent holds its own PlanState over the same shared weights:
        # it validates submissions, packs the store, and serves as the
        # all-replicas-down fallback executor (bit-identical by construction — same plans, same
        # weight bytes).
        program = lower_graph(graph)
        self.plan_state = PlanState(
            program, batch_buckets=self._config.batch_buckets, config=config
        )
        self.name = program.name
        self.store = WeightStore.create(
            program, self.plan_state.plan, weights, cache_dir=cache_dir
        )
        self.plan_state.bind_weights(self.store.weights_by_name())
        self._local: Optional[InferenceSession] = None
        self._local_lock = threading.Lock()

        self._ctx = mp.get_context("spawn")
        self._replicas: List[_Replica] = [
            _Replica(i) for i in range(replicas)
        ]
        self._queue: "queue.Queue[_Pending]" = queue.Queue()
        self._lock = threading.Lock()
        self._capacity = threading.Condition(self._lock)
        self._stopping = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None
        self._watchdog: Optional[threading.Thread] = None
        self._started = False
        self._batch_ids = itertools.count()
        self._last_replica = replicas - 1
        self._serving_since: Optional[float] = None

        self.requests_submitted = 0
        self.requests_completed = 0
        self.batches_dispatched = 0
        self.requests_redispatched = 0
        self.local_fallback_batches = 0
        self.worker_crashes = 0
        self.worker_respawns = 0
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)

    # ---- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return (
            self._dispatcher is not None and self._dispatcher.is_alive()
        )

    def alive_replicas(self) -> int:
        """Replicas serving now: a respawn counts once its worker is ready."""
        with self._lock:
            return sum(
                1 for r in self._replicas if r.alive and r.ready.is_set()
            )

    def start(self) -> "ShardedServer":
        """Spawn every worker, wait for them to map weights, start serving."""
        if self._started:
            return self
        self._stopping.clear()
        for replica in self._replicas:
            self._spawn(replica)
        deadline = time.perf_counter() + _READY_TIMEOUT_S
        for replica in self._replicas:
            remaining = max(0.0, deadline - time.perf_counter())
            if not replica.ready.wait(timeout=remaining):
                self._abort_start()
                raise ExecutionError(
                    f"replica {replica.index} did not become ready within "
                    f"{_READY_TIMEOUT_S}s"
                )
            if replica.fatal is not None:
                self._abort_start()
                raise ExecutionError(
                    f"replica {replica.index} failed to start: "
                    f"{replica.fatal}"
                )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"sharded-{self.name}-dispatch",
            daemon=True,
        )
        self._dispatcher.start()
        if self.request_timeout_s is not None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name=f"sharded-{self.name}-watchdog",
                daemon=True,
            )
            self._watchdog.start()
        self._started = True
        self._serving_since = time.perf_counter()
        return self

    def _abort_start(self) -> None:
        self._stopping.set()
        for replica in self._replicas:
            proc = replica.process
            if proc is not None and proc.is_alive():
                proc.terminate()
        self.store.unlink()

    def _spawn(self, replica: _Replica) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                replica.index,
                self._graph_doc,
                self.store.manifest,
                self._config,
                child_conn,
            ),
            name=f"sharded-{self.name}-w{replica.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        replica.process = proc
        replica.conn = parent_conn
        replica.clean_exit = False
        replica.fatal = None
        replica.ready.clear()
        with self._lock:
            replica.alive = True
        replica.receiver = threading.Thread(
            target=self._receive_loop,
            args=(replica,),
            name=f"sharded-{self.name}-recv{replica.index}",
            daemon=True,
        )
        replica.receiver.start()

    def stop(self) -> None:
        """Stop accepting requests, resolve everything accepted, shut down.

        Mirrors ``BatchingServer.stop()``: the dispatcher finishes the
        queue, then the parent waits for every in-flight batch (the
        watchdog still converts hangs into crashes, whose requests come
        back to the queue and are served locally). No accepted request is
        dropped.
        """
        self._stopping.set()
        dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.join()
        # Outstanding batches resolve via the receiver threads; anything
        # re-enqueued by a crash (and any submit that raced the shutdown)
        # is served here, in the parent, over the shared PlanState.
        while True:
            self._drain_now()
            with self._capacity:
                if (
                    self._queue.empty()
                    and all(not r.in_flight for r in self._replicas)
                ):
                    break
                self._capacity.wait(timeout=_WATCHDOG_POLL_S)
        for replica in self._replicas:
            with self._lock:
                alive = replica.alive
            if alive and replica.conn is not None:
                try:
                    with replica.send_lock:
                        replica.conn.send(None)
                except (OSError, ValueError):
                    pass
        for replica in self._replicas:
            proc = replica.process
            if proc is not None:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
            if replica.conn is not None:
                replica.conn.close()
            if (
                replica.receiver is not None
                and replica.receiver is not threading.current_thread()
            ):
                replica.receiver.join(timeout=5.0)
        watchdog = self._watchdog
        if watchdog is not None:
            watchdog.join(timeout=5.0)
        self._started = False
        self.store.unlink()

    def __enter__(self) -> "ShardedServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ---- request entry ---------------------------------------------------

    def submit(self, feeds: Feeds) -> "Future[List[np.ndarray]]":
        """Queue one request; the future resolves with its output list.

        Feeds may be keyed by placeholder tensor or by name, and cover
        only the model *inputs* — the server merges its shared weights
        under every request. Shape and missing-placeholder errors raise
        here, synchronously.
        """
        if not self._started or self._stopping.is_set():
            raise ExecutionError(
                "ShardedServer is not running; call start() "
                "(or use it as a context manager)"
            )
        resolved = self._resolve(feeds)
        # Validate at the door against the parent's identical plan.
        self.plan_state.plan.bind_feeds(
            self.plan_state.with_weights(resolved)
        )
        pending = _Pending(resolved, Future())
        self._queue.put(pending)
        with self._lock:
            self.requests_submitted += 1
        return pending.future

    def run(self, feeds: Feeds, timeout: Optional[float] = None):
        """Synchronous convenience: submit and wait for the outputs."""
        return self.submit(feeds).result(timeout)

    def _resolve(self, feeds: Feeds) -> Mapping[Tensor, np.ndarray]:
        if feeds and all(isinstance(key, str) for key in feeds):
            return resolve_feeds_by_name(self.plan_state.program, feeds)
        return feeds  # type: ignore[return-value]

    # ---- dispatcher ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=_IDLE_POLL_S)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            self._dispatch(self._gather(first))

    def _gather(self, first: _Pending) -> List[_Pending]:
        """Fill a batch behind ``first`` under the size/delay policy."""
        batch = [first]
        deadline = first.enqueued + self._delay_s
        while len(batch) < self.max_batch_size:
            if self._stopping.is_set():
                remaining = 0.0
            else:
                remaining = deadline - time.perf_counter()
            if remaining <= 0:
                try:
                    while len(batch) < self.max_batch_size:
                        batch.append(self._queue.get_nowait())
                except queue.Empty:
                    pass
                break
            try:
                batch.append(self._queue.get(timeout=remaining))
            except queue.Empty:
                break
        return batch

    def _pick_replica(self) -> Optional[_Replica]:
        """A replica with spare capacity, per policy; None to run locally.

        Blocks (briefly) while every replica is at its outstanding-batch
        cap; falls back to ``None`` — execute in the parent — only when no
        replica is alive and none is coming back.
        """
        pick = _POLICIES[self.policy]
        deadline = time.perf_counter() + 1.0
        while True:
            with self._capacity:
                outstanding: List[Optional[int]] = []
                usable = 0
                for r in self._replicas:
                    # A respawning replica is alive but not yet ready;
                    # dispatching to it would start the request clock while
                    # the worker is still importing, inviting a watchdog
                    # kill before it ever serves.
                    if (
                        r.alive
                        and r.ready.is_set()
                        and len(r.in_flight) < self.max_outstanding_batches
                    ):
                        outstanding.append(r.outstanding)
                        usable += 1
                    else:
                        outstanding.append(None)
                if usable:
                    idx = pick(self._last_replica, outstanding)
                    self._last_replica = idx
                    return self._replicas[idx]
                if not any(r.alive for r in self._replicas):
                    if time.perf_counter() >= deadline:
                        return None  # every worker down: serve locally
                self._capacity.wait(timeout=_WATCHDOG_POLL_S)

    def _dispatch(self, batch: List[_Pending]) -> None:
        replica = self._pick_replica()
        if replica is None:
            self._execute_locally(batch)
            return
        batch_id = next(self._batch_ids)
        feeds_list = [
            {t.name: v for t, v in pending.feeds.items()}
            for pending in batch
        ]
        with self._lock:
            lost = not replica.alive
            if not lost:
                replica.in_flight[batch_id] = _InFlight(list(batch))
                self.batches_dispatched += 1
        if lost:
            # Lost the replica between picking and registering; try again.
            self._dispatch(batch)
            return
        try:
            with replica.send_lock:
                replica.conn.send(("batch", batch_id, feeds_list))
        except (OSError, ValueError):
            # The worker died under us; its receiver thread sees EOF and
            # re-enqueues this batch through the crash path.
            pass

    def _execute_locally(self, batch: List[_Pending]) -> None:
        """Run one batch in the parent over the shared PlanState."""
        with self._local_lock:
            if self._local is None:
                self._local = InferenceSession.from_plan_state(
                    self.plan_state, name=f"{self.name}[local]"
                )
            session = self._local
        with self._lock:
            self.local_fallback_batches += 1
        try:
            results = session.run_batch(
                [pending.feeds for pending in batch]
            )
        except Exception:
            results = None
        if results is not None:
            for pending, outputs in zip(batch, results):
                self._settle(pending, outputs)
        else:
            for pending in batch:
                try:
                    self._settle(pending, session.run(pending.feeds))
                except Exception as exc:  # noqa: BLE001 — forwarded
                    self._settle(pending, None, exc)

    def _settle(self, pending: _Pending, outputs, exc=None) -> None:
        """Resolve one future exactly once (idempotent across re-dispatch)."""
        try:
            if exc is not None:
                pending.future.set_exception(exc)
            else:
                pending.future.set_result(outputs)
        except InvalidStateError:
            return  # already resolved by an earlier dispatch
        with self._lock:
            self.requests_completed += 1
            self._latencies.append(time.perf_counter() - pending.enqueued)

    def _drain_now(self) -> None:
        """Serve whatever is queued right now, in the parent."""
        while True:
            batch: List[_Pending] = []
            try:
                while len(batch) < self.max_batch_size:
                    batch.append(self._queue.get_nowait())
            except queue.Empty:
                pass
            if not batch:
                return
            self._execute_locally(batch)

    # ---- replica receive / crash recovery --------------------------------

    def _receive_loop(self, replica: _Replica) -> None:
        conn = replica.conn
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "result":
                _, batch_id, results = msg
                with self._capacity:
                    entry = replica.in_flight.pop(batch_id, None)
                    if entry is not None:
                        replica.requests_served += len(entry.members)
                    self._capacity.notify_all()
                if entry is not None:
                    for pending, outputs in zip(entry.members, results):
                        self._settle(pending, outputs)
            elif kind == "error":
                _, batch_id, message = msg
                with self._capacity:
                    entry = replica.in_flight.pop(batch_id, None)
                    self._capacity.notify_all()
                if entry is not None:
                    # Isolate the failure exactly like BatchingServer:
                    # replay each member unbatched (in the parent) so only
                    # the faulty request's future carries an exception.
                    for pending in entry.members:
                        try:
                            self._settle(
                                pending, self._run_one_locally(pending)
                            )
                        except Exception as exc:  # noqa: BLE001
                            self._settle(pending, None, exc)
            elif kind == "ready":
                replica.info = msg[2]
                replica.ready.set()
            elif kind == "stats":
                replica.stats = msg[2]
                replica.stats_event.set()
            elif kind == "fatal":
                replica.fatal = msg[2]
                replica.ready.set()
            elif kind == "bye":
                replica.clean_exit = True
        self._on_replica_down(replica)

    def _run_one_locally(self, pending: _Pending) -> List[np.ndarray]:
        with self._local_lock:
            if self._local is None:
                self._local = InferenceSession.from_plan_state(
                    self.plan_state, name=f"{self.name}[local]"
                )
            session = self._local
        return session.run(pending.feeds)

    def _on_replica_down(self, replica: _Replica) -> None:
        """EOF from a worker: reclaim its in-flight work, maybe respawn."""
        with self._capacity:
            was_alive = replica.alive
            replica.alive = False
            stranded = list(replica.in_flight.values())
            replica.in_flight.clear()
            crashed = not replica.clean_exit and was_alive
            if crashed:
                replica.crashes += 1
                self.worker_crashes += 1
            self._capacity.notify_all()
        # Re-dispatch every request the dead worker still owed — before any
        # early return: a respawned replica can die *again* before ready
        # while already holding re-dispatched batches. During shutdown the
        # dispatcher may already be gone — stop()'s drain loop picks these
        # up from the queue.
        redispatched = 0
        for entry in stranded:
            for pending in entry.members:
                if not pending.future.done():
                    pending.redispatched = True
                    redispatched += 1
                    self._queue.put(pending)
        if redispatched:
            with self._lock:
                self.requests_redispatched += redispatched
        if not replica.ready.is_set():
            # Death during startup: fail start() fast, never respawn-loop.
            replica.fatal = replica.fatal or "worker exited before ready"
            replica.ready.set()
            return
        if crashed and self._started and not self._stopping.is_set():
            try:
                self._spawn(replica)
            except Exception:  # noqa: BLE001 — replica stays down
                return
            if replica.ready.wait(timeout=_READY_TIMEOUT_S) and (
                replica.fatal is None
            ):
                with self._lock:
                    self.worker_respawns += 1
                with self._capacity:
                    self._capacity.notify_all()
            else:
                with self._lock:
                    replica.alive = False

    def _watchdog_loop(self) -> None:
        """Convert hangs into crashes: kill workers past the deadline."""
        timeout = self.request_timeout_s
        while not self._stopping.is_set() or any(
            r.in_flight for r in self._replicas
        ):
            now = time.perf_counter()
            for replica in self._replicas:
                with self._lock:
                    if not replica.alive or not replica.in_flight:
                        continue
                    oldest = min(
                        b.sent_at for b in replica.in_flight.values()
                    )
                    proc = replica.process
                if now - oldest > timeout and proc is not None:
                    proc.kill()
            if self._stopping.is_set() and not any(
                r.in_flight for r in self._replicas
            ):
                return
            time.sleep(_WATCHDOG_POLL_S)

    # ---- metrics ---------------------------------------------------------

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 submit->resolve latency (seconds, bounded window)."""
        with self._lock:
            window = list(self._latencies)
        return window_percentiles(window)

    def refresh_replica_stats(self, timeout_s: float = 2.0) -> None:
        """Round-trip a stats request to every alive replica."""
        pinged = []
        for replica in self._replicas:
            with self._lock:
                alive = replica.alive
            if not alive or replica.conn is None:
                continue
            replica.stats_event.clear()
            try:
                with replica.send_lock:
                    replica.conn.send(("stats",))
            except (OSError, ValueError):
                continue
            pinged.append(replica)
        deadline = time.perf_counter() + timeout_s
        for replica in pinged:
            replica.stats_event.wait(
                timeout=max(0.0, deadline - time.perf_counter())
            )

    def metrics(self, refresh: bool = True) -> dict:
        """Per-replica and aggregate serving metrics.

        ``weight_bytes_saved`` counts the copies sharding avoided: with K
        replicas each mapping the same segment, K-1 per-process weight
        copies never exist.
        """
        if refresh and self._started and not self._stopping.is_set():
            self.refresh_replica_stats()
        percentiles = self.latency_percentiles()
        per_replica = []
        for replica in self._replicas:
            with self._lock:
                row = {
                    "index": replica.index,
                    "alive": replica.alive,
                    "pid": replica.info.get("pid"),
                    "crashes": replica.crashes,
                    "outstanding": replica.outstanding,
                    "requests": replica.requests_served,
                    "weight_bytes_mapped": replica.info.get(
                        "weight_bytes_mapped", 0
                    ),
                    "weight_private_bytes": replica.info.get(
                        "weight_private_bytes", 0
                    ),
                }
            row.update({
                f"worker_{k}": v for k, v in replica.stats.items()
            })
            per_replica.append(row)
        elapsed = (
            time.perf_counter() - self._serving_since
            if self._serving_since is not None else 0.0
        )
        with self._lock:
            aggregate = {
                "model": self.name,
                "replicas": self.replicas,
                "alive": sum(1 for r in self._replicas if r.alive),
                "policy": self.policy,
                "requests_submitted": self.requests_submitted,
                "requests_completed": self.requests_completed,
                "requests_redispatched": self.requests_redispatched,
                "batches_dispatched": self.batches_dispatched,
                "local_fallback_batches": self.local_fallback_batches,
                "worker_crashes": self.worker_crashes,
                "worker_respawns": self.worker_respawns,
                "elapsed_s": elapsed,
                "qps": (
                    self.requests_completed / elapsed
                    if elapsed > 0 else 0.0
                ),
                "p50_us": percentiles["p50"] * 1e6,
                "p95_us": percentiles["p95"] * 1e6,
                "p99_us": percentiles["p99"] * 1e6,
                "weight_bytes_total": self.store.total_bytes,
                "weight_bytes_saved": (
                    (self.replicas - 1) * self.store.total_bytes
                ),
                "weight_store_from_disk": self.store.loaded_from_disk,
            }
        return {"per_replica": per_replica, "aggregate": aggregate}

    def render_metrics(self, refresh: bool = True) -> str:
        """Text report of the per-replica and aggregate metrics."""
        m = self.metrics(refresh=refresh)
        agg = m["aggregate"]
        lines = [
            f"sharded serving: {agg['model']} x{agg['replicas']} "
            f"({agg['policy']}), {agg['alive']} alive — "
            f"{agg['requests_completed']} served, "
            f"{agg['qps']:.1f} req/s, p50/p95/p99 = "
            f"{agg['p50_us']:.0f}/{agg['p95_us']:.0f}/"
            f"{agg['p99_us']:.0f} us",
            f"weights: {agg['weight_bytes_total'] / 1e6:.2f} MB shared "
            f"once ({agg['weight_bytes_saved'] / 1e6:.2f} MB of per-replica "
            f"copies avoided"
            + (", restored from disk)" if agg["weight_store_from_disk"]
               else ")"),
            f"faults: {agg['worker_crashes']} crashes, "
            f"{agg['worker_respawns']} respawns, "
            f"{agg['requests_redispatched']} re-dispatched, "
            f"{agg['local_fallback_batches']} local-fallback batches",
        ]
        header = (
            f"{'replica':>7s} {'pid':>8s} {'alive':>5s} {'reqs':>8s} "
            f"{'occup':>6s} {'p50 us':>9s} {'p99 us':>9s} "
            f"{'private W':>10s} {'rss MB':>8s}"
        )
        lines.append(header)
        for row in m["per_replica"]:
            occup = row.get("worker_mean_occupancy", 0.0)
            lines.append(
                f"{row['index']:7d} {str(row.get('pid')):>8s} "
                f"{str(row['alive']):>5s} {row['requests']:8d} "
                f"{occup * 100:5.1f}% "
                f"{row.get('worker_p50_us', 0.0):9.0f} "
                f"{row.get('worker_p99_us', 0.0):9.0f} "
                f"{row['weight_private_bytes']:10d} "
                f"{row.get('worker_rss_bytes', 0) / 1e6:8.1f}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<ShardedServer {self.name} x{self.replicas} ({self.policy}): "
            f"{self.requests_completed} served, "
            f"{self.worker_crashes} crashes>"
        )
