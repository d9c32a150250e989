"""Self-checks of the benchmark: attribution, statistics and the gate.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import compile_model
from repro.models import build_mmoe_tiny
from repro.runtime.executor import ExecutionPlan
from repro.runtime.module import CompiledModule

from perfbench import inputs, loadgen
from perfbench.layers import COVERAGE_TOLERANCE, _coverage, metric_names
from perfbench.run import END_TO_END
from perfbench.trace import END, Tracer
from perfbench.workloads import Window

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PLANTED_S = 0.004
REQUESTS = 40


@pytest.fixture(scope="module")
def served():
    module = compile_model(build_mmoe_tiny(), cache=False)
    placeholders = module.program.inputs
    weights = inputs.make_weights(placeholders, 0)
    (request,) = inputs.make_requests(placeholders, 1, 1)
    feeds = {placeholders[i]: v for i, v in {**weights, **request}.items()}
    module.run(feeds)
    return module, feeds


def traced_layers(module, feeds, delay_s, owner=ExecutionPlan,
                  attr="execute"):
    """Mean per-request self time of each layer, with ``delay_s`` planted
    inside ``owner.attr``; and the run's coverage."""
    original = owner.__dict__[attr]

    def delayed(self, *args, **kwargs):
        time.sleep(delay_s)
        return original(self, *args, **kwargs)

    setattr(owner, attr, delayed)
    tracer = Tracer()
    tracer.install()
    try:
        for rid in range(1, REQUESTS + 1):
            span = tracer.begin("bench.request", (rid,))
            try:
                module.run(feeds)
            finally:
                tracer.end(span)
    finally:
        tracer.uninstall()
        setattr(owner, attr, original)
    layers = {
        k: v / REQUESTS for k, v in tracer.layer_seconds().items()
    }
    return layers, _coverage(tracer, 0, Window())


def test_planted_delay_lands_in_execute_self_time(served):
    module, feeds = served
    base, _ = traced_layers(module, feeds, 0.0)
    planted, coverage = traced_layers(module, feeds, PLANTED_S)
    gained = planted["executor.execute"] - base["executor.execute"]
    assert PLANTED_S * 0.9 <= gained <= PLANTED_S * 1.5
    for layer in ("session.bind", "session.other", "module.run"):
        assert planted[layer] - base[layer] < PLANTED_S * 0.1, layer
    assert coverage >= 1 - COVERAGE_TOLERANCE


def test_coverage_misses_work_outside_the_working_layers(served):
    # Work in a pass-through wrapper is charged to no working layer.
    module, feeds = served
    _, coverage = traced_layers(module, feeds, PLANTED_S,
                                owner=CompiledModule, attr="run")
    assert coverage < 1 - COVERAGE_TOLERANCE


def test_spans_from_two_threads_keep_their_own_records():
    tracer = Tracer()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def spans():
        for _ in range(5000):
            outer = tracer.begin("outer")
            tracer.end(tracer.begin("inner"))
            tracer.end(outer)

    try:
        threads = [threading.Thread(target=spans) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(switch)
    assert len(tracer.spans) == 20000
    assert all(s[END] > 0 for s in tracer.spans)
    assert min(tracer.self_seconds()) >= 0


def test_saturate_keeps_the_concurrency_and_counts_completions():
    open_now, most = [0], [0]
    lock = threading.Lock()

    def work(feeds):
        time.sleep(0.001)
        with lock:
            open_now[0] -= 1
        return [feeds["x"]]

    with ThreadPoolExecutor(max_workers=2) as pool:
        def submit(feeds):
            with lock:
                open_now[0] += 1
                most[0] = max(most[0], open_now[0])
            return pool.submit(work, feeds)

        tally, first = loadgen.saturate(submit, [{"x": np.zeros(1)}], 3, 0.3)
    assert 0 < most[0] <= 3 and open_now[0] == 0
    assert tally.sent > 0 and len(tally.latencies_ms) == tally.sent
    assert min(tally.latencies_ms) >= 1.0
    assert list(first) == [0]


def test_tracer_restores_the_program(served):
    module, feeds = served
    before = ExecutionPlan.__dict__["execute"]
    tracer = Tracer()
    tracer.install()
    assert ExecutionPlan.__dict__["execute"] is not before
    tracer.uninstall()
    assert ExecutionPlan.__dict__["execute"] is before
    assert not tracer.spans or all(s[2] >= s[1] for s in tracer.spans)


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    pct, value = loadgen.tail(values)
    assert pct == 90.0 and value == 90
    assert loadgen.tail([3, 1, 2]) == (100.0, 3)


def test_oracle_gate_rejects_nonfinite_and_changed_bits():
    want = [np.array([1.0, 2.0])]
    assert inputs.matches([np.array([1.0, 2.0])], want)
    assert not inputs.matches([np.array([1.0, np.nextafter(2.0, 3.0)])],
                              want)
    nan = [np.array([1.0, np.nan])]
    assert not inputs.matches(nan, nan)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metric_names()
    allowed = set(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"
    )
    for entry in doc["end_to_end"] + doc["per_layer"]:
        name = entry["name"]
        assert len(name) <= 64 and name[0].isalnum() and set(name) <= allowed


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dispatch_bound",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert result.returncode != 0
    assert result.stdout == ""


def _session_processes(sid):
    """Processes, zombies included, whose session id is ``sid``."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append((int(pid), fields[0]))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sharded_run_leaves_no_process_behind():
    # The replicas and Python's resource tracker must all have ended,
    # and been waited for, when the run exits.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve_sharded",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err
    assert json.loads(out.splitlines()[-1])["correct"]
    assert _session_processes(proc.pid) == []
