"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dispatch_bound --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program. ``--trace 1`` is the separate traced run: it reports the
per-layer metrics, from an untraced window and a traced one of half the
time each. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; lines before
it give the figures behind the metrics (per-model medians, the tail's
percentile and sample count, every ladder rung).

The program is imported from ``src/`` of the checkout; without it the
run exits with status 2 and prints no result. A served output that
differs from the oracle exits with status 1, and a traced closed-loop
run whose layers miss the request wall time (``perfbench.layers``) with
status 3, each after the result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Scratch space of a run (cold caches, trace files), ignored by git.
WORKDIR = os.path.join(ROOT, ".perfbench")


# The end-to-end metrics and their units, as BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "goodput_rps": "req/s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` and root on the import path."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        sys.exit(2)
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def info(label: str, value) -> None:
    """One figure behind the metrics, printed before the result line."""
    print(f"# {label}: {json.dumps(value, default=float)}", flush=True)


def end_to_end(args) -> dict:
    import numpy as np

    from perfbench.workloads import Bench, own_rss_kb, peak_rss_mb

    bench = Bench(args.workload, args.seed, WORKDIR)
    try:
        bench.setup()
        window = bench.measure(args.seconds, np.random.default_rng(args.seed))
    finally:
        bench.close()
    pct, tail_ms, n = window.tail()
    full_pct, full_ms = window.tail_full()
    # Closed-loop timings are put at reference machine speed. Open-loop
    # latency at the nominal rate is mostly the fixed 2 ms batching window
    # and thread wake-ups, which do not follow the probe: over five runs,
    # raw p50_ms on serve_batched spread 0.03, scaled 0.21. The open-loop
    # goodput, a saturation rate, is raw too: over three sets of five
    # runs, scaled by probes taken around the saturation phase it spread
    # 0.07, 0.24 and 0.28; raw, 0.13, 0.08 and 0.06.
    scale = 1.0 if window.rungs else window.speed.scale
    info("machine probe ms", {"median": window.speed.probe_s * 1e3,
                              "samples": len(window.speed.samples),
                              "scale": scale})
    info("setup_s per set-up (raw)", bench.setup_seconds)
    info("p50_ms per model (raw)", {
        name: statistics.median(v) for name, v in window.latencies_ms.items()
    })
    info("raw", {"p50_ms": window.p50_ms(), "tail_ms": tail_ms,
                 "goodput_rps": window.goodput_rps})
    info("tail", {"percentile": pct, "ms": tail_ms, "n": n,
                  "whole_window": {"percentile": full_pct, "ms": full_ms}})
    info("peak_rss_mb", {"timed_window": peak_rss_mb(window.rss_kb),
                         "after_check": peak_rss_mb(own_rss_kb())})
    for row in window.rungs:
        info("rung", row)
    info("requests", {"sent": window.sent, "failed": window.failed,
                      "wrong": window.wrong, "warnings": window.warnings})
    values = {
        "setup_s": statistics.median(bench.setup_scaled),
        "peak_rss_mb": peak_rss_mb(window.rss_kb, bench.replicas),
        "p50_ms": window.p50_ms() * scale,
        "tail_ms": tail_ms * scale,
        "goodput_rps": window.goodput_rps / scale,
    }
    return {
        "correct": window.wrong == 0,
        "attempted": window.sent,
        "failed": window.failed + window.wrong,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        },
    }


def stop_processes() -> None:
    """End every process the run started and wait until each has ended.

    ``ShardedServer`` stops its replicas itself; this also catches any a
    failed set-up left behind. Its spawn context and shared-memory
    weights start Python's resource tracker, which is no child of
    ``multiprocessing``: it ends only when its pipe closes, after this
    process has exited, and nobody waits for it. Closing the pipe here
    and waiting for it leaves nothing running once the run returns.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    try:
        if args.trace:
            from perfbench.layers import traced_run

            result, covered = traced_run(args, WORKDIR)
        else:
            result, covered = end_to_end(args), True
    finally:
        stop_processes()
    print(json.dumps(result), flush=True)
    if not result["correct"]:
        return 1
    if not covered:
        print("perfbench: the layers' self times missed the request wall "
              "time by more than the coverage tolerance", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
