"""Tests for the plan-optimizer pass pipeline (``repro.runtime.plan_opt``).

The contract: an optimized :class:`ExecutionPlan` is *bit-identical* to the
unoptimized plan on every paper model — unbatched and batched — while
fusing single-consumer map chains (Sec. 6.2) and eliding dead inputs in
place (Sec. 6.5). Every pass, in every combination, must also leave a
layout the static verifier accepts. A subgraph that reads only weights is
an ordinary step: it runs on every request against the weights as they are
then, so a changed or reallocated weight can never serve a stale value.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GraphBuilder, lower_graph
from repro.models import TINY_MODELS
from repro.runtime.executor import (
    BatchedExecutionPlan,
    ExecutionPlan,
    PlanConfig,
)
from repro.runtime.plan_opt import optimize_plan, plan_optimization
from repro.runtime.session import InferenceSession
from repro.te.evaluator import Evaluator
from repro.transform import random_feeds
from repro.verify import verify_plan

from tests.strategies import random_graphs

# The plain lowering: the optimizer pass pipeline off.
PLAIN = PlanConfig(optimize=False)


def request_feeds(program, count, seed):
    return [random_feeds(program, seed=seed + i) for i in range(count)]


# ---- whole-model bit-identity ------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_optimized_matches_unoptimized(self, name):
        program = lower_graph(TINY_MODELS[name]())
        feeds = random_feeds(program, seed=5)
        baseline = ExecutionPlan(program, config=PLAIN).run(feeds)
        optimized = ExecutionPlan(program).run(feeds)
        assert len(optimized) == len(baseline)
        for got, want in zip(optimized, baseline):
            assert got.shape == want.shape
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_batched_optimized_matches_unoptimized(self, name):
        program = lower_graph(TINY_MODELS[name]())
        requests = request_feeds(program, 8, seed=9)
        baseline = BatchedExecutionPlan(
            program, batch_size=8, config=PLAIN
        ).run_batch(requests)
        optimized = BatchedExecutionPlan(
            program, batch_size=8
        ).run_batch(requests)
        for lane_base, lane_opt in zip(baseline, optimized):
            for want, got in zip(lane_base, lane_opt):
                assert np.array_equal(got, want), name

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_replay_is_stable(self, name):
        """Elision makes steps overwrite their inputs; a second replay of
        the same arena must still be exact (no state leaks)."""
        program = lower_graph(TINY_MODELS[name]())
        plan = ExecutionPlan(program)
        feeds_a = random_feeds(program, seed=1)
        feeds_b = random_feeds(program, seed=2)
        want_a = ExecutionPlan(program, config=PLAIN).run(feeds_a)
        plan.run(feeds_b)  # dirty the arena
        got_a = plan.run(feeds_a)
        for got, want in zip(got_a, want_a):
            assert np.array_equal(got, want), name


# ---- property: every pass subset stays verifier-clean and exact --------------


@st.composite
def pass_flags(draw):
    return {
        "fuse": draw(st.booleans()),
        "elide": draw(st.booleans()),
    }


@settings(max_examples=30, deadline=None)
@given(random_graphs(), pass_flags())
def test_every_pass_subset_is_clean_and_exact(graph, flags):
    program = lower_graph(graph)
    opt = plan_optimization(program, **flags)
    report = verify_plan(
        opt.step_view, opt.memory_plan, inplace=opt.inplace_pairs
    )
    assert not report.errors, report.render()

    feeds = random_feeds(program, seed=13)
    want = ExecutionPlan(program, config=PLAIN).run(feeds)
    plan = ExecutionPlan(program, config=PLAIN)
    optimize_plan(plan, opt=plan_optimization(program, **flags))
    got = plan.run(feeds)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# ---- weight-only subgraphs run on every request -----------------------------


def weight_relu_program():
    """``matmul(x, relu(w))``: ``relu(w)`` reads only a weight."""
    b = GraphBuilder("wrelu")
    x = b.input((4, 8), name="x")
    w = b.weight((8, 6), name="w")
    return lower_graph(b.build([b.matmul(x, b.relu(w))]))


def assert_matches_oracle(program, feeds, got):
    ev = Evaluator(feeds)
    want = [ev.value_of(t) for t in program.outputs]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


class TestWeightOnlySubgraph:
    def test_runs_as_an_ordinary_step(self):
        program = weight_relu_program()
        plan = ExecutionPlan(program)
        assert plan.num_steps == len(program.nodes) == 2

    def test_weight_changed_in_place_between_runs(self):
        program = weight_relu_program()
        x, w = program.inputs
        session = InferenceSession(program)
        rng = np.random.default_rng(0)
        feeds = {x: rng.standard_normal(x.shape),
                 w: rng.standard_normal(w.shape)}
        assert_matches_oracle(program, feeds, session.run(feeds))
        feeds[w] += 1.0  # same object, new bytes
        assert_matches_oracle(program, feeds, session.run(feeds))

    def test_fresh_weights_freed_between_runs(self):
        """CPython reuses a freed array's ``id()`` for the next one of the
        same size; no result may depend on that."""
        program = weight_relu_program()
        x, w = program.inputs
        session = InferenceSession(program)
        rng = np.random.default_rng(1)
        xv = rng.standard_normal(x.shape)
        for _ in range(200):
            wv = rng.standard_normal(w.shape)
            feeds = {x: xv, w: wv}
            assert_matches_oracle(program, feeds, session.run(feeds))
            del feeds, wv
            gc.collect()

    def test_shared_weight_changed_between_batches(self):
        program = weight_relu_program()
        x, w = program.inputs
        session = InferenceSession(program, batch_buckets=(4,))
        rng = np.random.default_rng(2)
        wv = rng.standard_normal(w.shape)
        for _ in range(3):
            requests = [{x: rng.standard_normal(x.shape), w: wv}
                        for _ in range(4)]
            for feeds, got in zip(requests, session.run_batch(requests)):
                assert_matches_oracle(program, feeds, got)
            wv *= -0.5  # every lane's shared weight, in place


# ---- pass 1: vertical step fusion --------------------------------------------


def map_chain_program():
    b = GraphBuilder("mapchain")
    x = b.input((8, 8), name="x")
    w = b.weight((8, 8), name="w")
    y = b.matmul(x, w)
    return lower_graph(b.build([b.tanh(b.sigmoid(b.relu(y)))]))


class TestFusion:
    def test_single_consumer_map_chain_fuses(self):
        program = map_chain_program()
        opt = plan_optimization(program, elide=False)
        assert opt.stats.fused_steps == 2  # relu->sigmoid, sigmoid->tanh
        names = [g.name for g in opt.groups]
        assert any("+" in name for name in names), names

    def test_fused_interiors_deleted_from_arena(self):
        program = map_chain_program()
        opt = plan_optimization(program, elide=False)
        interiors = {
            id(m.tensor)
            for g in opt.groups
            for m in g.members
            if m is not g.terminal
        }
        assert interiors
        assert not interiors & set(opt.memory_plan.assignments)

    def test_fused_step_names_join_members(self):
        program = map_chain_program()
        plan = ExecutionPlan(program)
        fused = [s for s in plan.steps if s.kind == "fused"]
        assert fused and all("+" in s.name for s in fused)

    def test_multi_consumer_producer_never_fuses(self):
        b = GraphBuilder("fanout")
        x = b.input((4, 4), name="x")
        y = b.relu(x)
        program = lower_graph(b.build([b.add(b.sigmoid(y), b.tanh(y))]))
        opt = plan_optimization(program, elide=False)
        producer = next(
            n for n in program.nodes if n.tensor.name.startswith("relu")
        )
        for g in opt.groups:
            if producer in g.members:
                assert g.terminal is producer


# ---- pass 2: in-place arena elision ------------------------------------------


def elidable_program():
    """``reduce_sum(relu(matmul(x, w)))``: the relu is a map over an
    einsum result that dies right there — an in-place candidate."""
    b = GraphBuilder("elidey")
    x = b.input((8, 8), name="x")
    w = b.weight((8, 8), name="w")
    y = b.relu(b.matmul(x, w))
    return lower_graph(b.build([b.reduce_sum(y, axes=(1,))]))


class TestElision:
    def test_elision_shrinks_workspace(self):
        program = elidable_program()
        with_elide = plan_optimization(program, fuse=False)
        without = plan_optimization(program, fuse=False, elide=False)
        assert with_elide.stats.elided_buffers > 0
        assert with_elide.inplace_pairs
        assert (with_elide.memory_plan.workspace_bytes
                < without.memory_plan.workspace_bytes)

    def test_elided_plan_is_exact(self):
        program = elidable_program()
        feeds = random_feeds(program, seed=2)
        want = ExecutionPlan(program, config=PLAIN).run(feeds)
        got = ExecutionPlan(program).run(feeds)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_non_shrinking_elisions_are_dropped(self):
        """Whatever the model, an optimization either keeps the plain
        packing or beats it — elision never grows the arena."""
        for name in sorted(TINY_MODELS):
            program = lower_graph(TINY_MODELS[name]())
            merged = plan_optimization(program)
            plain = plan_optimization(program, elide=False)
            if merged.elided:
                assert (merged.memory_plan.workspace_bytes
                        < plain.memory_plan.workspace_bytes), name
            else:
                assert (merged.memory_plan.workspace_bytes
                        == plain.memory_plan.workspace_bytes), name


# ---- replay order ------------------------------------------------------------


def wide_branchy_program():
    """Four independent 256x256 matmul branches summed: every branch step
    moves 65536 elements, so nothing but data dependences orders them."""
    b = GraphBuilder("wide")
    x = b.input((256, 256), name="x")
    branches = [
        b.relu(b.matmul(x, b.weight((256, 256), name=f"w{i}")))
        for i in range(4)
    ]
    out = branches[0]
    for other in branches[1:]:
        out = b.add(out, other)
    return lower_graph(b.build([out]))


def record_order(plan):
    """Wrap every step's ``run`` to log when it starts and ends.

    Returns the log. Steps that overlap in time (dispatched concurrently)
    interleave their entries; a serial replay logs each start right before
    its own end.
    """
    order = []
    for step in plan.steps:
        def run(values, name=step.name, inner=step.run):
            order.append(("start", name))
            inner(values)
            order.append(("end", name))

        step.run = run
    return order


class TestReplayOrder:
    def test_steps_keep_program_order(self):
        program = wide_branchy_program()
        plan = ExecutionPlan(program)
        assert [s.index for s in plan.steps] == list(range(len(plan.steps)))
        positions = [g.terminal.index for g in plan.optimization.groups]
        assert positions == sorted(positions)
        assert plan.optimization.stats.wave_count == len(plan.steps)

    def test_profiling_replays_the_served_order(self):
        """Observing must not change what is observed: a profiled session
        runs the same steps, in the same order, to the same bytes."""
        program = wide_branchy_program()
        feeds = random_feeds(program, seed=17)
        plain = InferenceSession(program)
        profiled = InferenceSession(program, profile=True)
        big = [
            s for s in plain.plan.steps
            if s.kind in ("einsum", "matmul")
        ]
        assert len(big) == 4
        plain_order = record_order(plain.plan)
        profiled_order = record_order(profiled.plan)
        for _ in range(2):
            want = plain.run(feeds)
            got = profiled.run(feeds)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert plain_order == profiled_order
        served = [
            (event, s.name)
            for s in plain.plan.steps
            for event in ("start", "end")
        ]
        assert plain_order == served * 2
        report = profiled.profile_report()
        assert all(s.calls == 2 for s in report.steps)


# ---- stats and reporting -----------------------------------------------------


class TestStats:
    def test_stats_accounting(self):
        program = lower_graph(TINY_MODELS["bert"]())
        plan = ExecutionPlan(program)
        stats = plan.optimization.stats
        assert stats.steps_before == len(program.nodes)
        assert stats.steps_after == len(plan.steps)
        assert stats.steps_after == (
            stats.steps_before - stats.fused_steps
        )
        assert stats.wave_count == stats.steps_after
        assert stats.workspace_after == plan.memory_plan.workspace_bytes
        assert "->" in stats.summary()
        assert "arena workspace" in stats.render()

    def test_repr_tags_optimized_plans(self):
        program = map_chain_program()
        assert "optimized" in repr(ExecutionPlan(program))
        assert "optimized" not in repr(ExecutionPlan(program, config=PLAIN))
