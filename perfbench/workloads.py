"""The four workloads: how each sets up, drives load and checks outputs.

Every workload runs against the public API with the defaults users get
(wave executor, ``optimize=True``, ``tile=True``, batch buckets 2/4/8,
``max_batch_size=8``, 2 ms queue delay) and starts cold: each set-up gets
a fresh, empty ``REPRO_CACHE_DIR``, compiles from scratch and spawns
fresh replicas.

* ``dispatch_bound`` — closed loop, one client, tiny bert, mmoe, lstm,
  swin and efficientnet in a seeded interleaving. Steps cost 3-20 us, so
  per-step Python dispatch, feed binding and arena handling dominate.
* ``compute_bound`` — closed loop, one client, paper-width 2-layer bert,
  paper-scale mmoe and tiny resnext. A few large numpy steps dominate.
* ``serve_batched`` — open-loop Poisson arrivals into
  ``compile_model(tiny bert).serve()``, then a saturation phase: queue
  wait, batch formation and batched plans do the work.
* ``serve_sharded`` — the same into ``ShardedServer(tiny mmoe,
  replicas=2)``: pickling and pipe IPC dominate, weights are bound
  server-side.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import compile_model, lower_graph
from repro.models import (
    build_bert,
    build_bert_tiny,
    build_efficientnet_tiny,
    build_lstm_tiny,
    build_mmoe,
    build_mmoe_tiny,
    build_resnext_tiny,
    build_swin_tiny_test,
)
from repro.runtime.sharding import ShardedServer

from perfbench import inputs, loadgen
from perfbench.machine import Speed
from perfbench.trace import Tracer

# Set-ups per run; setup_s is their median. Workloads whose set-up
# costs seconds (paper-width compiles, replica spawns) do fewer.
SETUP_REPEATS = 5

# Open requests that stop a rung as overloaded: half a second of
# arrivals, at most MAX_PENDING. The rungs are below saturation, so only
# a server that stopped keeping up reaches this.
MAX_BACKLOG_S = 0.5
MAX_PENDING = 1000

# Machine-speed probes taken before each phase of an open-loop window,
# and after the last.
RUNG_PROBES = 32

# Machine-speed probes taken before and after each set-up.
SETUP_PROBES = 16

# Shares of an open-loop window: the nominal rate first, saturation last,
# the other rungs share the rest. The saturation rate follows the
# machine's drifting speed, so it gets the longest stretch.
NOMINAL_SHARE = 0.4
SATURATION_SHARE = 0.45

# Distinct pre-generated requests per model, cycled by the load.
REQUESTS_PER_MODEL = 16

# Requests per model compared with the oracle in each run.
CHECKS_PER_MODEL = 3

# Consecutive requests per tail window: tail_ms is the median of the
# per-window tails (each the 90th percentile of a full window), so one
# stall of the shared machine moves one window, not the reported figure.
# With 200-request windows (95th percentiles) the open loops' tails
# spread 0.23-0.24 over ten runs: in some runs the machine stalled the
# generator for 2-5% of the nominal rung's requests.
TAIL_WINDOW = 100

# Batch buckets of the default session (repro.runtime.session).
BUCKETS = (1, 2, 4, 8)

PHASES = (
    "lowering", "horizontal_transform", "vertical_transform", "analysis",
    "partitioning", "subprogram_opt", "codegen", "cache_store",
)


@dataclass(frozen=True)
class Spec:
    """A model as a workload uses it: metric name and graph builder."""

    name: str
    build: Callable


@dataclass(frozen=True)
class OpenLoop:
    """An open-loop traffic plan: rate ladder, saturation, latency limit.

    The ladder's rates are below the server's saturation point. After
    them, a saturation phase keeps ``concurrency`` requests open and
    reads ``goodput_rps``: completions within ``limit_ms`` per second.
    """

    ladder: Tuple[float, ...]   # req/s, ascending
    nominal: float              # the rate p50_ms and tail_ms are read at
    limit_ms: float             # latency a request must meet to count
    concurrency: int            # requests kept open while saturating


WORKLOADS: Dict[str, dict] = {
    "dispatch_bound": {
        "models": (
            Spec("bert", build_bert_tiny),
            Spec("mmoe", build_mmoe_tiny),
            Spec("lstm", build_lstm_tiny),
            Spec("swin", build_swin_tiny_test),
            Spec("efficientnet", build_efficientnet_tiny),
        ),
    },
    "compute_bound": {
        # Two layers keep BERT-base's per-layer shapes (seq 128, hidden
        # 768, 12 heads, FFN 3072); the 12-layer model costs ~5 s a request.
        "models": (
            Spec("bert", lambda: build_bert(layers=2)),
            Spec("mmoe", build_mmoe),
            Spec("resnext", build_resnext_tiny),
        ),
        "checks": 1,
        "setups": 3,
    },
    "serve_batched": {
        "models": (Spec("bert", build_bert_tiny),),
        "open_loop": OpenLoop((250.0, 1000.0), 250.0, 50.0, 32),
    },
    "serve_sharded": {
        "models": (Spec("mmoe", build_mmoe_tiny),),
        "open_loop": OpenLoop((500.0, 2000.0), 500.0, 50.0, 32),
        "replicas": 2,
        "setups": 3,
    },
}

MODELS = ("bert", "mmoe", "lstm", "swin", "efficientnet", "resnext")


# ---- results ------------------------------------------------------------


@dataclass
class Window:
    """What one timed window measured."""

    latencies_ms: Dict[str, List[float]] = field(default_factory=dict)
    # Every latency above, in send order.
    in_order: List[float] = field(default_factory=list)
    sent: int = 0
    failed: int = 0
    wrong: int = 0
    warnings: int = 0
    seconds: float = 0.0
    goodput_rps: float = 0.0
    rungs: List[dict] = field(default_factory=list)
    # Peak RSS (KiB) of this process when the timed load ended, before the
    # oracle check: the check's Evaluator keeps every intermediate tensor.
    rss_kb: int = 0
    # Traced runs only: the model of each closed-loop request, or the
    # open-loop send record, indexed by request id - 1.
    traced: list = field(default_factory=list)
    # Machine-speed probes taken while the window ran.
    speed: Speed = field(default_factory=Speed)

    def p50_ms(self) -> float:
        """Geometric mean over models of each model's median latency."""
        return loadgen.geomean([
            statistics.median(v) for v in self.latencies_ms.values()
        ])

    def tail_full(self) -> Tuple[float, float]:
        """(percentile, ms): the highest percentile with 10 samples beyond
        it over every request of the window, not per window."""
        return loadgen.tail(self.in_order)

    def tail(self) -> Tuple[float, float, int]:
        """(percentile, ms, n): the median over windows of ``TAIL_WINDOW``
        requests in send order (a short last window joins the one before)
        of each window's highest percentile with 10 samples beyond it."""
        values = self.in_order
        count = max(1, len(values) // TAIL_WINDOW)
        bounds = [i * TAIL_WINDOW for i in range(count)] + [len(values)]
        parts = [
            loadgen.tail(values[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        return (
            statistics.median(p for p, _ in parts),
            statistics.median(v for _, v in parts),
            len(values),
        )


@dataclass
class Prepared:
    """One served model with its pre-generated traffic, keyed for the
    program that serves it.

    A compiled model's oracle is ``module.run_interpreted`` on the same
    feeds. Behind a sharded server ``module`` is None and the oracle is an
    ``Evaluator`` over ``oracle_program`` with ``oracle_feeds``.
    """

    name: str
    module: object
    requests: List[dict]
    oracle_program: object = None
    oracle_feeds: List[dict] = field(default_factory=list)

    def expected(self, index: int) -> list:
        if self.module is not None:
            return self.module.run_interpreted(self.requests[index])
        return inputs.oracle(self.oracle_program.outputs,
                             self.oracle_feeds[index])


# ---- helpers ------------------------------------------------------------


class ColdCaches:
    """Fresh, empty ``REPRO_CACHE_DIR`` per set-up, removed on close."""

    def __init__(self, root: str) -> None:
        os.makedirs(root, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=root)
        self._count = 0
        self._saved = os.environ.get("REPRO_CACHE_DIR")

    def fresh(self) -> str:
        self._count += 1
        path = os.path.join(self.root, f"setup-{self._count}")
        os.makedirs(path)
        os.environ["REPRO_CACHE_DIR"] = path
        return path

    def close(self) -> None:
        if self._saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = self._saved
        shutil.rmtree(self.root, ignore_errors=True)


def peak_rss_mb(own_kb: int, replicas: int = 0) -> float:
    """``own_kb`` plus ``replicas`` times the largest reaped child's peak
    RSS (the replicas have exited when this is read), in MB."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + replicas * child) / 1024.0


# ---- the benchmark ------------------------------------------------------


class Bench:
    """One run of one workload: set-ups, timed windows and checks."""

    def __init__(self, workload: str, seed: int, workdir: str,
                 tracer: Optional[Tracer] = None) -> None:
        if workload not in WORKLOADS:
            raise KeyError(
                f"unknown workload {workload!r}; choose one of "
                f"{sorted(WORKLOADS)}"
            )
        self.workload = workload
        self.config = WORKLOADS[workload]
        self.specs: Tuple[Spec, ...] = self.config["models"]
        self.seed = seed
        self.caches = ColdCaches(workdir)
        self.tracer = tracer
        self.open_loop: Optional[OpenLoop] = self.config.get("open_loop")
        self.replicas = self.config.get("replicas", 0)
        self.models: List[Prepared] = []
        self.server = None
        # Raw wall seconds of each set-up, and the same at reference speed.
        self.setup_seconds: List[float] = []
        self.setup_scaled: List[float] = []
        # Weights and requests per model, drawn once from the seed.
        self._arrays = []
        for i, spec in enumerate(self.specs):
            placeholders = lower_graph(spec.build()).inputs
            self._arrays.append((
                inputs.make_weights(placeholders, [seed, i, 0]),
                inputs.make_requests(placeholders, REQUESTS_PER_MODEL,
                                     [seed, i, 1]),
            ))

    # ---- set-up ----------------------------------------------------------

    def setup(self, repeats: Optional[int] = None) -> None:
        """Set up cold ``repeats`` times; keep the last one for serving."""
        if repeats is None:
            repeats = self.config.get("setups", SETUP_REPEATS)
        for _ in range(repeats):
            self.close_server()
            self.models = []
            gc.collect()
            self.caches.fresh()
            speed = Speed()
            speed.sample(SETUP_PROBES)
            seconds = self._setup_once()
            speed.sample(SETUP_PROBES)
            self.setup_seconds.append(seconds)
            self.setup_scaled.append(seconds * speed.scale)

    @contextlib.contextmanager
    def _span(self, name: str):
        """A benchmark-side span in the traced run; nothing otherwise."""
        index = self.tracer.begin(name) if self.tracer is not None else -1
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.end(index)

    def _traffic(self, index: int, graph, tensors, with_weights: bool):
        """Requests keyed for the serving program (``tensors`` by name)."""
        weights, activations = self._arrays[index]
        placeholders = lower_graph(graph).inputs
        return [
            inputs.keyed({**weights, **a} if with_weights else a,
                         placeholders, tensors)
            for a in activations
        ]

    def _setup_once(self) -> float:
        """Cold start to ready to serve; returns its wall seconds.

        Timed: compile (or server construction, weight packing and
        replica spawn), plan builds and every lazy warm-up. Not timed:
        building the model graph and keying the pre-drawn arrays.
        """
        graphs = [spec.build() for spec in self.specs]
        if self.replicas:
            return self._setup_sharded(graphs[0])
        start = time.perf_counter()
        prepared = []
        for i, (spec, graph) in enumerate(zip(self.specs, graphs)):
            with self._span("core.compile"):
                module = compile_model(graph)
            session = module.session
            paused = time.perf_counter()
            tensors = {t.name: t for t in module.program.inputs}
            requests = self._traffic(i, graph, tensors, with_weights=True)
            start += time.perf_counter() - paused
            if self.open_loop is None:
                module.run(requests[0])
            else:
                # Every batch bucket's plan and arena, before timing.
                for bucket in BUCKETS:
                    session.run_batch(requests[:bucket])
            prepared.append(Prepared(spec.name, module, requests))
        if self.open_loop is not None:
            self.server = prepared[0].module.serve()
            self._warm_server(prepared[0].requests)
        elapsed = time.perf_counter() - start
        self.models = prepared
        return elapsed

    def _setup_sharded(self, graph) -> float:
        weights, _ = self._arrays[0]
        placeholders = lower_graph(graph).inputs
        by_name = {
            placeholders[i].name: v for i, v in weights.items()
        }
        start = time.perf_counter()
        server = ShardedServer(graph, by_name, replicas=self.replicas)
        server.start()
        self.server = server
        paused = time.perf_counter()
        tensors = {t.name: t for t in server.plan_state.program.inputs}
        requests = self._traffic(0, graph, tensors, with_weights=False)
        start += time.perf_counter() - paused
        self._warm_server(requests)
        elapsed = time.perf_counter() - start
        # The replicas serve the plain lowering of the graph with the
        # server's weights merged under each request.
        program = lower_graph(graph)
        oracle_feeds = self._traffic(
            0, graph, {t.name: t for t in program.inputs}, with_weights=True
        )
        self.models = [Prepared(self.specs[0].name, None, requests,
                                program, oracle_feeds)]
        return elapsed

    def _warm_server(self, requests: List[dict]) -> None:
        """Send a burst of every bucket size, several times over, so each
        bucket's batched plan is built in every replica before timing.

        The dispatcher gathers a burst within its 2 ms window and, with
        idle replicas, alternates between them; four bursts per size and
        replica make it very likely every replica saw every size.
        """
        rounds = 4 * max(1, self.replicas)
        for bucket in BUCKETS:
            for _ in range(rounds):
                futures = [self.server.submit(r) for r in requests[:bucket]]
                for future in futures:
                    future.result(timeout=60)

    def close_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        self.close_server()
        self.caches.close()

    # ---- correctness -----------------------------------------------------

    def check(self, sent: Dict[Tuple[int, int], list], rng,
              per_model: int) -> int:
        """Compare a seeded sample of served outputs with the oracle.

        ``sent`` maps (model, request index) to the outputs of that
        request's first send. Returns how many sampled outputs differ
        byte for byte from a fresh ``Evaluator`` (non-finite is wrong).
        """
        wrong = 0
        for j, model in enumerate(self.models):
            indices = sorted(i for m, i in sent if m == j)
            if not indices:
                continue
            picks = rng.choice(indices, size=min(per_model, len(indices)),
                               replace=False)
            for index in picks.tolist():
                if not inputs.matches(sent[(j, index)],
                                      model.expected(index)):
                    wrong += 1
        return wrong

    # ---- closed loop -----------------------------------------------------

    def closed_loop(self, seconds: float, rng) -> Window:
        """One client: send, wait, send the next model in seeded order."""
        window = Window(latencies_ms={m.name: [] for m in self.models})
        first: Dict[Tuple[int, int], list] = {}
        sends = [0] * len(self.models)
        tracer = self.tracer
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            deadline = start + seconds
            while time.perf_counter() < deadline:
                for j in rng.permutation(len(self.models)).tolist():
                    model = self.models[j]
                    index = sends[j] % len(model.requests)
                    sends[j] += 1
                    window.sent += 1
                    span = -1
                    if tracer is not None:
                        window.traced.append(j)
                        span = tracer.begin("bench.request", (window.sent,))
                    t0 = time.perf_counter()
                    try:
                        outputs = model.module.run(model.requests[index])
                    except Exception:  # noqa: BLE001 — counted as failed
                        window.failed += 1
                        continue
                    finally:
                        if tracer is not None:
                            tracer.end(span)
                    t1 = time.perf_counter()
                    window.latencies_ms[model.name].append((t1 - t0) * 1e3)
                    window.in_order.append((t1 - t0) * 1e3)
                    first.setdefault((j, index), outputs)
                    window.speed.maybe_sample()
            window.seconds = (
                time.perf_counter() - start - window.speed.spent_s
            )
        window.rss_kb = own_rss_kb()
        window.warnings = _runtime_warnings(caught)
        window.wrong = self.check(
            first, rng, self.config.get("checks", CHECKS_PER_MODEL)
        )
        good = window.sent - window.failed - window.wrong
        window.goodput_rps = good / window.seconds
        return window

    # ---- open loop -------------------------------------------------------

    def open_loop_window(self, seconds: float, rng,
                         nominal_only: bool = False) -> Window:
        """Send each rate of the ladder in turn, then saturate the server.

        Latency is read at the nominal rate; ``goodput_rps`` in the
        saturation phase. ``nominal_only`` sends the nominal rate alone,
        for the whole window, in one go.
        """
        plan = self.open_loop
        model = self.models[0]
        window = Window(latencies_ms={model.name: []})
        tracer = self.tracer
        on_send = None
        if tracer is not None:
            def on_send(record: loadgen.Sent, feeds: dict) -> None:
                window.traced.append(record)
                tracer.tag(feeds, len(window.traced))

        # (rate, seconds) in the order sent; rate None is saturation.
        if nominal_only:
            schedule = [(plan.nominal, seconds)]
        else:
            others = [r for r in plan.ladder if r != plan.nominal]
            share = (1 - NOMINAL_SHARE - SATURATION_SHARE) / len(others)
            schedule = (
                [(plan.nominal, seconds * NOMINAL_SHARE)]
                + [(rate, seconds * share) for rate in others]
                + [(None, seconds * SATURATION_SHARE)]
            )
        tallies: Dict[Optional[float], loadgen.Tally] = {}
        first: Dict[Tuple[int, int], list] = {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            for rate, share in schedule:
                # Collected and probed while the server is idle: the
                # last phase's garbage is not left for this one, and
                # during a phase the probe would time the server's
                # threads holding the GIL.
                gc.collect()
                window.speed.sample(RUNG_PROBES)
                if rate is None:
                    tallies[rate], outputs = loadgen.saturate(
                        self.server.submit, model.requests,
                        plan.concurrency, share,
                    )
                    for index, out in outputs.items():
                        first.setdefault((0, index), out)
                    continue
                rung = loadgen.run_rung(
                    self.server.submit, model.requests, rate, share, rng,
                    max_pending=max(64, min(MAX_PENDING,
                                            int(rate * MAX_BACKLOG_S))),
                    on_send=on_send,
                )
                if tracer is not None:
                    tracer.clear_tags()
                tallies[rate] = loadgen.Tally.of(rung)
                for record in rung.ok:
                    if record.outputs is not None:
                        first.setdefault((0, record.request), record.outputs)
                del rung
            window.speed.sample(RUNG_PROBES)
            window.seconds = time.perf_counter() - start
        window.rss_kb = own_rss_kb()
        for rate, tally in tallies.items():
            row = _rung_row(tally, plan.limit_ms)
            window.rungs.append(row)
            if rate == plan.nominal:
                window.latencies_ms[model.name] = tally.latencies_ms
                window.in_order = tally.latencies_ms
            if rate is None:
                window.goodput_rps = row["within_limit_rps"]
        window.sent = sum(row["sent"] for row in window.rungs)
        window.failed = sum(row["failed"] for row in window.rungs)
        window.warnings = _runtime_warnings(caught)
        window.wrong = self.check(first, rng, CHECKS_PER_MODEL)
        return window

    def measure(self, seconds: float, rng, **kwargs) -> Window:
        if self.open_loop is not None:
            return self.open_loop_window(seconds, rng, **kwargs)
        return self.closed_loop(seconds, rng)


def own_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _runtime_warnings(caught) -> int:
    return sum(1 for w in caught if issubclass(w.category, RuntimeWarning))


def _rung_row(tally: loadgen.Tally, limit_ms: float) -> dict:
    """One phase's figures, and whether it meets the limit."""
    latencies = tally.latencies_ms
    failed = tally.sent - len(latencies)
    if latencies:
        pct, tail_ms, _ = Window(in_order=latencies).tail()
        p50 = statistics.median(latencies)
    else:
        pct, tail_ms, p50 = 0.0, math.inf, math.inf
    late = tally.late_ms
    return {
        "rate": tally.rate or "saturation",
        "sent": tally.sent,
        "failed": failed,
        "p50_ms": p50,
        "tail_ms": tail_ms,
        "tail_pct": pct,
        "late_p99_ms": float(np.percentile(late, 99)) if late else 0.0,
        "pending_at_end": tally.pending_at_end,
        "overloaded": tally.overloaded,
        "within_limit_rps": (
            sum(1 for v in latencies if v <= limit_ms) / tally.seconds
        ),
        # A growing backlog stops the rung as overloaded, and any backlog
        # the rung survives shows in its tail.
        "passes": bool(failed == 0 and tail_ms <= limit_ms
                       and not tally.overloaded),
    }
