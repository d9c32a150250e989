"""Tests for sharded multi-process serving over shared-memory weights.

The contract under test, bottom to top: ``WeightStore`` packs every
session-bound weight into one shared-memory segment that execution plans
bind zero-copy, and restores a persisted blob only when it holds exactly
the given weights; ``PlanState`` makes one
immutable plan + weight table shareable across sessions while each
``InferenceSession`` keeps its own arena pool; ``ShardedServer`` fans
requests out to K worker processes with outputs bit-identical to a serial
single-process replay, survives SIGKILLed and hung replicas without
dropping an accepted request, and reports that replicas map — not copy —
the weight bytes.

Worker processes are spawned, so this module must run from a real file
(pytest does); it cannot be exercised from a stdin/heredoc script.
"""

import glob
import os
import signal
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.graph import GraphBuilder, lower_graph
from repro.runtime.executor import ExecutionPlan, PlanConfig
from repro.runtime.session import InferenceSession, PlanState
from repro.runtime.sharding import (
    ShardedServer,
    pick_least_outstanding,
    pick_round_robin,
)
from repro.runtime.weight_store import WeightStore, weight_store_key
from repro.transform import random_feeds


# The plain lowering: the optimizer pass pipeline off.
PLAIN = PlanConfig(optimize=False)


def mlp_graph():
    b = GraphBuilder("mlp")
    x = b.input((4, 8), name="x")
    w1 = b.weight((8, 16), name="w1")
    w2 = b.weight((16, 4), name="w2")
    return b.build(
        [b.softmax(b.matmul(b.relu(b.matmul(x, w1)), w2), axis=-1)]
    )


def weight_only_graph():
    """A graph with a subexpression that reads only a weight."""
    b = GraphBuilder("wonly")
    x = b.input((4, 8), name="x")
    w1 = b.weight((8, 16), name="w1")
    w2 = b.weight((16, 4), name="w2")
    gate = b.relu(w1)  # weight-only: an ordinary step on every request
    return b.build([b.matmul(b.relu(b.matmul(x, gate)), w2)])


def split_feeds(program, seed=0):
    """(weights_by_name, activation feed dicts) for serving-style traffic."""
    base = random_feeds(program, seed=seed)
    weights = {t.name: v for t, v in base.items() if t.role == "weight"}
    return base, weights


def request_stream(program, count, seed=0):
    lead = program.inputs[0]
    rng = np.random.default_rng(seed + 1)
    return [{lead.name: rng.standard_normal(lead.shape)}
            for _ in range(count)]


def serial_reference(program, base, requests):
    """Bit-exact per-request outputs from a fresh single session."""
    session = InferenceSession(program)
    lead = program.inputs[0]
    out = []
    for request in requests:
        feeds = dict(base)
        feeds[lead] = request[lead.name]
        out.append(session.run(feeds))
    return out


def assert_bit_identical(got_list, want_list):
    assert len(got_list) == len(want_list)
    for got, want in zip(got_list, want_list):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestDispatchPolicies:
    def test_round_robin_cycles_and_skips_unavailable(self):
        assert pick_round_robin(0, [0, 0, 0]) == 1
        assert pick_round_robin(2, [0, 0, 0]) == 0
        # Dead/at-capacity replicas are None and never picked.
        assert pick_round_robin(0, [0, None, 0]) == 2
        assert pick_round_robin(2, [None, 3, None]) == 1

    def test_least_outstanding_picks_min(self):
        assert pick_least_outstanding(0, [2, 0, 1]) == 1
        assert pick_least_outstanding(0, [5, None, 1]) == 2

    def test_least_outstanding_breaks_ties_round_robin(self):
        # All equal: continue the rotation from last+1, not always index 0.
        assert pick_least_outstanding(0, [1, 1, 1]) == 1
        assert pick_least_outstanding(1, [1, 1, 1]) == 2
        assert pick_least_outstanding(2, [1, 1, 1]) == 0


class TestWeightStore:
    def test_views_bind_zero_copy(self):
        program = lower_graph(mlp_graph())
        plan = ExecutionPlan(program, config=PLAIN)
        _, weights = split_feeds(program)
        store = WeightStore.create(program, plan, weights)
        try:
            views = store.weights_by_name()
            for t in program.inputs:
                if t.role != "weight":
                    continue
                view = views[t.name]
                # _bind_one must return the mapped view itself, not a copy:
                # that is the zero-copy contract every replica relies on.
                assert plan._bind_one(t, view) is view
                assert np.array_equal(view, weights[t.name])
        finally:
            store.close()
            store.unlink()

    def test_outputs_bit_identical_through_store(self):
        program = lower_graph(mlp_graph())
        base, weights = split_feeds(program)
        requests = request_stream(program, 4)
        want = serial_reference(program, base, requests)

        state = PlanState(program)
        store = WeightStore.create(program, state.plan, weights)
        try:
            state.bind_weights(store.weights_by_name())
            session = InferenceSession.from_plan_state(state)
            got = [session.run_by_name(r) for r in requests]
            assert_bit_identical(got, want)
        finally:
            store.close()
            store.unlink()

    def test_disk_roundtrip_is_byte_identical(self, tmp_path):
        graph = weight_only_graph()
        program = lower_graph(graph)
        base, weights = split_feeds(program)
        state = PlanState(program)
        cold = WeightStore.create(program, state.plan, weights,
                                  cache_dir=str(tmp_path))
        try:
            assert not cold.loaded_from_disk
            cold_bytes = bytes(cold._shm.buf[:cold.total_bytes])
        finally:
            cold.close()
            cold.unlink()

        # Second create with the same key restores the packed blob.
        program2 = lower_graph(graph)
        state2 = PlanState(program2)
        warm = WeightStore.create(program2, state2.plan, weights,
                                  cache_dir=str(tmp_path))
        try:
            assert warm.loaded_from_disk
            assert bytes(warm._shm.buf[:warm.total_bytes]) == cold_bytes
            state2.bind_weights(warm.weights_by_name())
            session = InferenceSession.from_plan_state(state2)
            requests = request_stream(program2, 3)
            got = [session.run_by_name(r) for r in requests]
            want = serial_reference(program, base, requests)
            assert_bit_identical(got, want)
        finally:
            warm.close()
            warm.unlink()

    def test_key_tracks_weight_bytes(self):
        program = lower_graph(mlp_graph())
        _, weights = split_feeds(program)
        key = weight_store_key(program, weights)
        assert key == weight_store_key(program, weights)
        mutated = dict(weights)
        mutated["w1"] = weights["w1"] + 1.0
        assert key != weight_store_key(program, mutated)


def blob_path(cache_dir):
    (path,) = glob.glob(os.path.join(cache_dir, "weights", "*.bin"))
    return path


def create_checked(program, plan, weights, cache_dir):
    """``WeightStore.create`` that must serve exactly ``weights``."""
    store = WeightStore.create(program, plan, weights, cache_dir=cache_dir)
    views = store.weights_by_name()
    assert sorted(views) == sorted(weights)
    for name, value in weights.items():
        same = views[name].tobytes() == value.tobytes()
        assert same, f"weight {name} differs from the one passed in"
    del views
    return store


class TestWeightBlobIntegrity:
    """A persisted blob serves only when it holds the weights it is keyed
    under; anything else is a miss that rebuilds and overwrites it."""

    def test_flipped_byte_is_a_miss(self, tmp_path):
        program = lower_graph(mlp_graph())
        plan = ExecutionPlan(program)
        _, weights = split_feeds(program)
        cache = str(tmp_path)
        create_checked(program, plan, weights, cache).unlink()
        path = blob_path(cache)
        with open(path, "r+b") as f:
            f.seek(3)
            byte = f.read(1)
            f.seek(3)
            f.write(bytes([byte[0] ^ 0xFF]))

        store = create_checked(program, plan, weights, cache)
        assert not store.loaded_from_disk
        store.unlink()
        # The bad blob was overwritten: the next create restores it.
        store = create_checked(program, plan, weights, cache)
        assert store.loaded_from_disk
        store.unlink()

    def test_truncated_blob_is_a_miss_and_frees_its_segment(
        self, tmp_path, monkeypatch
    ):
        program = lower_graph(mlp_graph())
        plan = ExecutionPlan(program)
        _, weights = split_feeds(program)
        cache = str(tmp_path)
        create_checked(program, plan, weights, cache).unlink()
        path = blob_path(cache)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)

        created = []
        real = shared_memory.SharedMemory

        def recording(*args, **kwargs):
            shm = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(shm.name)
            return shm

        monkeypatch.setattr(shared_memory, "SharedMemory", recording)
        store = create_checked(program, plan, weights, cache)
        monkeypatch.undo()
        try:
            assert not store.loaded_from_disk
            for name in created:
                if name == store.manifest.shm_name:
                    continue
                with pytest.raises(FileNotFoundError):
                    real(name=name)
        finally:
            store.unlink()
        assert os.path.getsize(path) == store.total_bytes


class TestPlanState:
    def test_sessions_share_plan_but_not_arenas(self):
        program = lower_graph(mlp_graph())
        base, weights = split_feeds(program)
        state = PlanState(program)
        state.bind_weights(weights)
        a = InferenceSession.from_plan_state(state)
        b = InferenceSession.from_plan_state(state)
        assert a.plan is b.plan
        requests = request_stream(program, 2)
        lead = program.inputs[0]
        for r in requests:
            a.run_by_name({lead.name: r[lead.name]})
            b.run_by_name({lead.name: r[lead.name]})
        # Batched plans are built once and shared...
        assert a.plan_state._batched_plans is b.plan_state._batched_plans
        # ...but each session pools its own arenas.
        assert a.arenas_allocated >= 1 and b.arenas_allocated >= 1
        assert a.arena_state is not b.arena_state

    def test_request_feeds_override_weight_table(self):
        program = lower_graph(mlp_graph())
        base, weights = split_feeds(program)
        state = PlanState(program)
        state.bind_weights(weights)
        session = InferenceSession.from_plan_state(state)
        lead = program.inputs[0]
        x = np.random.default_rng(5).standard_normal(lead.shape)
        default = session.run_by_name({lead.name: x})
        override = {"x": x, "w2": weights["w2"] * 2.0}
        changed = session.run_by_name(override)
        assert not all(
            np.array_equal(g, w) for g, w in zip(changed, default)
        )


class TestArenaAccounting:
    def test_profile_reports_pool_high_water_and_trims(self):
        program = lower_graph(mlp_graph())
        session = InferenceSession(program, profile=True, max_pool=1)
        base, _ = split_feeds(program)
        lead = program.inputs[0]
        requests = request_stream(program, 12, seed=3)

        def client(chunk):
            for r in chunk:
                feeds = dict(base)
                feeds[lead] = r[lead.name]
                session.run(feeds)

        threads = [
            threading.Thread(target=client, args=(requests[i::3],))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = session.profile_report()
        assert report.pool_high_water >= 1
        assert report.arenas_trimmed == session.arena_state.arenas_trimmed
        if session.arenas_allocated > 1:
            # max_pool=1: every extra arena must have been trimmed.
            assert report.arenas_trimmed >= session.arenas_allocated - 1
        assert "arena pool" in report.render()


@pytest.fixture
def mlp_setup():
    graph = mlp_graph()
    program = lower_graph(graph)
    base, weights = split_feeds(program)
    return graph, program, base, weights


class TestShardedServer:
    def test_rejects_bad_config(self, mlp_setup):
        graph, _, _, weights = mlp_setup
        with pytest.raises(ExecutionError):
            ShardedServer(graph, weights, replicas=0)
        with pytest.raises(ExecutionError):
            ShardedServer(graph, weights, policy="fastest")

    def test_bit_identical_and_zero_copy(self, mlp_setup):
        graph, program, base, weights = mlp_setup
        requests = request_stream(program, 24)
        want = serial_reference(program, base, requests)
        with ShardedServer(graph, weights, replicas=2,
                           max_queue_delay_ms=1.0) as server:
            futures = [server.submit(r) for r in requests]
            got = [f.result(timeout=120) for f in futures]
            m = server.metrics()
        assert_bit_identical(got, want)
        agg = m["aggregate"]
        assert agg["requests_completed"] == len(requests)
        assert agg["weight_bytes_saved"] == agg["weight_bytes_total"]
        for row in m["per_replica"]:
            # Every replica maps the segment; none holds a private copy.
            assert row["weight_bytes_mapped"] == agg["weight_bytes_total"]
            assert row["weight_private_bytes"] == 0

    def test_round_robin_spreads_requests(self, mlp_setup):
        graph, program, _, weights = mlp_setup
        requests = request_stream(program, 16)
        with ShardedServer(graph, weights, replicas=2, policy="round-robin",
                           max_batch_size=1,
                           max_queue_delay_ms=0.0) as server:
            futures = [server.submit(r) for r in requests]
            for f in futures:
                f.result(timeout=120)
            m = server.metrics()
        served = [row["requests"] for row in m["per_replica"]]
        assert sum(served) == len(requests)
        assert all(count > 0 for count in served)

    def test_stop_drains_accepted_requests(self, mlp_setup):
        graph, program, base, weights = mlp_setup
        requests = request_stream(program, 12)
        want = serial_reference(program, base, requests)
        server = ShardedServer(graph, weights, replicas=2,
                               max_queue_delay_ms=50.0)
        server.start()
        futures = [server.submit(r) for r in requests]
        server.stop()  # must not drop what it accepted
        got = [f.result(timeout=120) for f in futures]
        assert_bit_identical(got, want)
        with pytest.raises(ExecutionError):
            server.submit(requests[0])

    def test_sigkill_mid_stream_redispatches_bit_identically(
        self, mlp_setup
    ):
        """Satellite fault drill: SIGKILL a worker holding in-flight
        requests. Every accepted request still completes, re-dispatched
        members are bit-identical, and the replica respawns."""
        graph, program, base, weights = mlp_setup
        requests = request_stream(program, 32)
        want = serial_reference(program, base, requests)
        with ShardedServer(graph, weights, replicas=2,
                           request_timeout_s=20.0,
                           max_queue_delay_ms=5.0) as server:
            pid0 = server.metrics(refresh=False)["per_replica"][0]["pid"]
            futures = [server.submit(r) for r in requests[:16]]
            os.kill(pid0, signal.SIGKILL)
            futures += [server.submit(r) for r in requests[16:]]
            got = [f.result(timeout=120) for f in futures]
            deadline = time.perf_counter() + 30.0
            while (server.alive_replicas() < 2
                   and time.perf_counter() < deadline):
                time.sleep(0.05)
            m = server.metrics()
        assert_bit_identical(got, want)
        agg = m["aggregate"]
        assert agg["worker_crashes"] >= 1
        assert agg["worker_respawns"] >= 1
        assert agg["alive"] == 2
        assert m["per_replica"][0]["pid"] != pid0

    def test_hung_replica_killed_and_requests_recovered(
        self, mlp_setup, tmp_path
    ):
        """A replica that stops responding is killed by the watchdog after
        request_timeout_s; its requests are re-dispatched and complete."""
        graph, program, base, weights = mlp_setup
        flag = tmp_path / "hang.flag"
        flag.touch()
        requests = request_stream(program, 6)
        want = serial_reference(program, base, requests)
        with ShardedServer(graph, weights, replicas=2,
                           request_timeout_s=0.4,
                           fault_sleep_s=30.0,
                           fault_flag_path=str(flag)) as server:
            futures = [server.submit(r) for r in requests]
            time.sleep(1.0)
            flag.unlink()  # let respawned workers serve normally
            got = [f.result(timeout=120) for f in futures]
            m = server.metrics()
        assert_bit_identical(got, want)
        assert m["aggregate"]["worker_crashes"] >= 1

    def test_run_blocks_like_session(self, mlp_setup):
        graph, program, base, weights = mlp_setup
        request = request_stream(program, 1)[0]
        want = serial_reference(program, base, [request])[0]
        with ShardedServer(graph, weights, replicas=1) as server:
            got = server.run(request, timeout=120)
        assert_bit_identical([got], [want])
