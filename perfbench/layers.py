"""The traced run: per-layer metrics of one workload.

Layers are named after the ``src/repro`` modules. Each metric is timed
from outside, around a public call (``perfbench.trace``), or read from a
counter the program already exposes. Every traced run reports every
metric; one a workload does not exercise reads 0 (``sharding.*`` on the
in-process workloads, per-model figures of models the workload does not
serve).

The run sets up once with the tracer installed, measures a traced
window and then an untraced one of half ``--seconds`` each, so the tracing
overhead is the traced window's ``p50_ms`` over the untraced one's, each
as the untraced run reports it (``perfbench.machine``). Every other
timing here is raw wall time; ``machine.probe_ms`` gives the speed it
ran at.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Tuple

import numpy as np

from perfbench.trace import END, NAME, PARENT, RIDS, START, Tracer
from perfbench.workloads import MODELS, PHASES, Bench, Window

# Request-path layers whose self time is reported per request (ms).
SELF_TIME_LAYERS = (
    "module.run", "session.bind", "executor.execute", "session.other",
    "executor.batch_plan", "batching.submit", "sharding.submit",
)

# Wrappers that only pass a request on: their self time is time no
# working layer accounts for (the tracer's own bookkeeping included).
PASS_THROUGH = ("bench.request", "CompiledModule.run")

# On the closed loops, the working layers' self times must sum to the
# request wall time within this share; a miss fails the traced run.
COVERAGE_TOLERANCE = 0.05

# Metrics reported once per model, as "<name>.<model>", and their units.
PER_MODEL = {
    "p50_ms": "ms", "core.kernels": "count", "core.te_nodes": "count",
    "gpu.sim_us": "us", "executor.steps": "count",
    "executor.us_per_step": "us", "plan_opt.fused": "count",
    "plan_opt.elided_bytes": "bytes", "plan_opt.matmul": "count",
    "plan_opt.tiled_chains": "count", "plan_opt.waves": "count",
}

# Rates on the ladder of each open-loop workload.
RUNGS = 2


def metric_names() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    names: Dict[str, str] = {}
    for base, unit in PER_MODEL.items():
        for model in MODELS:
            names[f"{base}.{model}"] = unit
    names["core.compile_s"] = "s"
    for phase in PHASES:
        names[f"core.phase_s.{phase}"] = "s"
    names["executor.plan_build_s"] = "s"
    names["executor.batched_plan_build_s"] = "s"
    for layer in SELF_TIME_LAYERS:
        names[f"{layer}_ms"] = "ms"
    names.update({
        "session.workspace_bytes": "bytes",
        "plan_opt.scratch_bytes": "bytes",
        "session.arenas_allocated": "count",
        "batching.queue_wait_p50_ms": "ms",
        "batching.queue_wait_p99_ms": "ms",
        "batching.batch_size_mean": "count",
        "batching.batch_exec_ms": "ms",
        "sharding.replica_exec_ms": "ms",
        "sharding.non_exec_ms": "ms",
        "sharding.redispatched": "count",
        "sharding.crashes": "count",
        "weight_store.segment_bytes": "bytes",
        "weight_store.private_bytes": "bytes",
        "loadgen.sent": "count",
        "loadgen.failed": "count",
        "loadgen.wrong": "count",
        "loadgen.tail_full_ms": "ms",
    })
    for rung in range(1, RUNGS + 1):
        names[f"loadgen.late_p99_ms.rung{rung}"] = "ms"
    names.update({
        "numerics.warnings": "count",
        "machine.probe_ms": "ms",
        "trace.overhead_ratio": "ratio",
        "trace.coverage": "ratio",
    })
    return names


def _plan_figures(plan) -> Dict[str, float]:
    stats = plan.optimization.stats if plan.optimization else None
    return {
        "executor.steps": plan.num_steps,
        "plan_opt.fused": stats.fused_steps if stats else 0,
        "plan_opt.elided_bytes": stats.elided_bytes if stats else 0,
        "plan_opt.matmul": stats.specialized_contractions if stats else 0,
        "plan_opt.tiled_chains": stats.tiled_chains if stats else 0,
        "plan_opt.waves": stats.wave_count if stats else 0,
    }


def _model_figures(bench: Bench, values: Dict[str, float]) -> None:
    """Static per-model counts, plus the summed workspace figures."""
    workspace = scratch = arenas = 0
    for model in bench.models:
        module = model.module
        if module is not None:
            plan = module.session.plan
            values[f"core.kernels.{model.name}"] = len(module.kernels)
            values[f"core.te_nodes.{model.name}"] = len(module.program.nodes)
            values[f"gpu.sim_us.{model.name}"] = (
                module.simulate().total_time_us
            )
            arenas += module.session.arenas_allocated
        else:
            plan = bench.server.plan_state.plan
        for key, value in _plan_figures(plan).items():
            values[f"{key}.{model.name}"] = value
        workspace += plan.workspace_bytes
        if plan.optimization is not None:
            scratch += plan.optimization.stats.scratch_bytes
    values["session.workspace_bytes"] = workspace
    values["plan_opt.scratch_bytes"] = scratch
    values["session.arenas_allocated"] = arenas


def _setup_figures(bench: Bench, tracer: Tracer, values) -> None:
    values["core.compile_s"] = sum(tracer.durations("core.compile"))
    for model in bench.models:
        if model.module is None:
            continue
        for phase in PHASES:
            values[f"core.phase_s.{phase}"] += (
                model.module.stats.phase_seconds.get(phase, 0.0)
            )
    values["executor.plan_build_s"] = sum(
        tracer.durations("PlanState.__init__")
    )
    values["executor.batched_plan_build_s"] = sum(
        tracer.durations("PlanState.batch_plan")
    )


def _coverage(tracer: Tracer, first: int, window: Window) -> float:
    """Share of request wall time the layers' self times account for.

    Closed loop: the ``bench.request`` root spans are the wall time, and
    the working layers are every span below them but the pass-through
    ``CompiledModule.run``. Their self times sum to the wall time less the
    pass-throughs' self times, so the share falls when work moves outside
    any wrapped function, or the wrappers cost too much.

    Open loop: a request's wall time runs from its scheduled send to its
    resolution; the part inside spans that carry its id (its submit, the
    batch that served it) plus the generator's lateness is covered, the
    rest is queue wait and hand-back.
    """
    spans = tracer.spans[first:]
    if not window.rungs:
        wall = sum(s[END] - s[START] for s in spans
                   if s[NAME] == "bench.request")
        own = tracer.self_seconds(first)
        inside = sum(t for s, t in zip(spans, own)
                     if s[NAME] not in PASS_THROUGH)
        return inside / wall if wall > 0 else 0.0
    covered = [0.0] * len(window.traced)
    for s in spans:
        if s[PARENT] < first:
            for rid in s[RIDS]:
                covered[rid - 1] += s[END] - s[START]
    shares = [
        (c + r.sent - r.due) / r.latency
        for c, r in zip(covered, window.traced) if r.done and r.latency > 0
    ]
    return float(np.mean(shares)) if shares else 0.0


def _p50_ms(window: Window) -> float:
    """``p50_ms`` as the untraced run reports it (closed loops scaled to
    reference machine speed, open loops raw)."""
    return window.p50_ms() * (1.0 if window.rungs else window.speed.scale)


def _self_times(tracer: Tracer, first: int, window: Window,
                values: Dict[str, float]) -> None:
    requests = max(1, len(window.traced))
    layers = tracer.layer_seconds(first)
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}_ms"] = layers.get(layer, 0.0) * 1e3 / requests


def traced_run(args, workdir: str) -> Tuple[dict, bool]:
    """The traced run's result, and whether its coverage check held (it
    is checked on the closed loops only)."""
    tracer = Tracer()
    values = {name: 0.0 for name in metric_names()}
    bench = Bench(args.workload, args.seed, workdir, tracer=tracer)
    rng = np.random.default_rng(args.seed)
    half = args.seconds / 2
    try:
        tracer.install()
        bench.setup(repeats=1)
        tracer.uninstall()
        _setup_figures(bench, tracer, values)
        # The traced window runs first, so the server's own bounded
        # queue-wait window holds its requests, not the saturation phase's.
        first = len(tracer.spans)
        sharded_before = (
            bench.server.metrics() if bench.replicas else None
        )
        tracer.install()
        try:
            if bench.open_loop is not None:
                traced = bench.measure(half, rng, nominal_only=True)
            else:
                traced = bench.measure(half, rng)
        finally:
            tracer.uninstall()
        _model_figures(bench, values)
        _self_times(tracer, first, traced, values)
        _per_model_steps(bench, tracer, first, traced, values)
        values["trace.coverage"] = _coverage(tracer, first, traced)
        if bench.open_loop is not None and not bench.replicas:
            _batching_figures(bench, tracer, first, values)
        if bench.replicas:
            _sharding_figures(bench, sharded_before, traced, values)
        # The untraced window records no spans at all.
        bench.tracer = None
        plain = bench.measure(half, rng)
        for model, latencies in plain.latencies_ms.items():
            values[f"p50_ms.{model}"] = statistics.median(latencies)
        values["loadgen.sent"] = plain.sent
        values["loadgen.failed"] = plain.failed
        values["loadgen.wrong"] = plain.wrong
        values["loadgen.tail_full_ms"] = plain.tail_full()[1]
        for i, row in enumerate(plain.rungs[:RUNGS]):
            values[f"loadgen.late_p99_ms.rung{i + 1}"] = row["late_p99_ms"]
        values["numerics.warnings"] = plain.warnings + traced.warnings
        values["machine.probe_ms"] = plain.speed.probe_s * 1e3
        values["trace.overhead_ratio"] = (
            _p50_ms(traced) / _p50_ms(plain) - 1
        )
        os.makedirs(workdir, exist_ok=True)
        tracer.write(
            os.path.join(workdir,
                         f"trace-{args.workload}-{args.seed}.json"),
            info={"workload": args.workload, "seed": args.seed},
        )
    finally:
        tracer.uninstall()
        bench.close()
    covered = True
    if not plain.rungs:
        coverage = values["trace.coverage"]
        covered = coverage >= 1 - COVERAGE_TOLERANCE
        print(f"# coverage: {coverage:.4f} (tolerance "
              f"{COVERAGE_TOLERANCE}: {'ok' if covered else 'MISSED'})")
    units = metric_names()
    wrong = plain.wrong + traced.wrong
    return {
        "correct": wrong == 0,
        "attempted": plain.sent + traced.sent,
        "failed": plain.failed + traced.failed + wrong,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }, covered


def _per_model_steps(bench, tracer, first, window, values) -> None:
    """``executor.us_per_step``: execute self time per request / steps."""
    own = tracer.self_seconds(first)
    spans = tracer.spans[first:]
    totals: Dict[int, List[float]] = {}
    for s, t in zip(spans, own):
        if s[NAME] != "ExecutionPlan.execute" or not s[RIDS]:
            continue
        model = 0 if window.rungs else window.traced[s[RIDS][0] - 1]
        totals.setdefault(model, []).append(t)
    for j, times in totals.items():
        name = bench.models[j].name
        steps = values[f"executor.steps.{name}"]
        if steps:
            values[f"executor.us_per_step.{name}"] = (
                statistics.median(times) * 1e6 / steps
            )


def _batching_figures(bench, tracer, first, values) -> None:
    server = bench.server
    waits = server.queue_wait_percentiles()
    values["batching.queue_wait_p50_ms"] = waits["p50"] * 1e3
    values["batching.queue_wait_p99_ms"] = waits["p99"] * 1e3
    values["batching.batch_size_mean"] = server.mean_batch_size
    batches = tracer.durations("InferenceSession.run_batch", first)
    values["batching.batch_exec_ms"] = (
        statistics.mean(batches) * 1e3 if batches else 0.0
    )


def _sharding_figures(bench, before, window, values) -> None:
    after = bench.server.metrics()
    seconds = batches = 0.0
    for old, new in zip(before["per_replica"], after["per_replica"]):
        seconds += (new.get("worker_request_seconds", 0.0)
                    - old.get("worker_request_seconds", 0.0))
        batches += (new.get("worker_batches", 0)
                    - old.get("worker_batches", 0))
    exec_ms = seconds * 1e3 / batches if batches else 0.0
    served = [r for r in window.traced if r.done]
    remote_ms = (
        statistics.mean((r.done - r.submitted) * 1e3 for r in served)
        if served else 0.0
    )
    agg = after["aggregate"]
    values["sharding.replica_exec_ms"] = exec_ms
    values["sharding.non_exec_ms"] = remote_ms - exec_ms
    values["sharding.redispatched"] = agg["requests_redispatched"]
    values["sharding.crashes"] = agg["worker_crashes"]
    values["weight_store.segment_bytes"] = agg["weight_bytes_total"]
    values["weight_store.private_bytes"] = sum(
        row["weight_private_bytes"] for row in after["per_replica"]
    )
