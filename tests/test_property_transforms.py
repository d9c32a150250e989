"""Property-based tests: transformations preserve semantics on random
generated programs (hypothesis drives the program generator)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph import lower_graph
from repro.transform import (
    check_equivalent,
    horizontal_transform,
    vertical_transform,
)

from tests.strategies import random_graphs


@settings(max_examples=30, deadline=None)
@given(random_graphs())
def test_vertical_preserves_semantics(graph):
    program = lower_graph(graph)
    transformed, _ = vertical_transform(program)
    assert check_equivalent(program, transformed, atol=1e-7)


@settings(max_examples=30, deadline=None)
@given(random_graphs())
def test_horizontal_preserves_semantics(graph):
    program = lower_graph(graph)
    transformed, _ = horizontal_transform(program)
    assert check_equivalent(program, transformed, atol=1e-7)


@settings(max_examples=20, deadline=None)
@given(random_graphs())
def test_composed_transforms_preserve_semantics(graph):
    program = lower_graph(graph)
    h, _ = horizontal_transform(program)
    v, _ = vertical_transform(h)
    assert check_equivalent(program, v, atol=1e-7)


@settings(max_examples=15, deadline=None)
@given(random_graphs())
def test_full_pipeline_matches_unfused(graph):
    """End to end: a V4 compile computes what an unfused compile computes."""
    from repro import compile_model
    from repro.baselines import UnfusedCompiler

    souffle = compile_model(graph, level=4)
    unfused = UnfusedCompiler().compile(graph)
    rng = np.random.default_rng(0)
    feeds = {t.name: rng.standard_normal(t.shape) * 0.3
             for t in unfused.program.inputs}
    for expected, actual in zip(
        unfused.run_by_name(feeds), souffle.run_by_name(feeds)
    ):
        assert np.allclose(expected, actual, atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(random_graphs())
def test_transforms_never_grow_te_count(graph):
    """Both transformations only ever merge TEs, never duplicate them."""
    program = lower_graph(graph)
    h, _ = horizontal_transform(program)
    assert len(h) <= len(program)
    v, _ = vertical_transform(h)
    assert len(v) <= len(h)


@settings(max_examples=20, deadline=None)
@given(random_graphs())
def test_schedule_cache_roundtrip_preserves_resources(graph):
    """Serialise -> JSON -> deserialise -> apply preserves every resource
    estimate of every schedule in a random program (the property the
    persistent schedule cache relies on)."""
    import json

    from repro import a100_40gb
    from repro.cache import schedule_from_record, schedule_to_record
    from repro.schedule.ansor import AnsorScheduler

    scheduler = AnsorScheduler(a100_40gb())
    for node in lower_graph(graph):
        original = scheduler.schedule(node)
        # Through real JSON text, exactly as the on-disk store does it.
        record = json.loads(json.dumps(schedule_to_record(original)))
        rebuilt = schedule_from_record(record, node)
        assert rebuilt.node is node
        assert rebuilt.kind == original.kind
        assert rebuilt.tile == original.tile
        assert rebuilt.grid_blocks == original.grid_blocks
        assert rebuilt.threads_per_block == original.threads_per_block
        assert rebuilt.shared_mem_per_block == original.shared_mem_per_block
        assert rebuilt.regs_per_thread == original.regs_per_thread
        assert rebuilt.use_tensor_core == original.use_tensor_core
        assert rebuilt.load_bytes == original.load_bytes
        assert rebuilt.store_bytes == original.store_bytes
        assert rebuilt.fp16_flops == original.fp16_flops
        assert rebuilt.fp32_flops == original.fp32_flops
        assert rebuilt.atomic_bytes == original.atomic_bytes


@settings(max_examples=10, deadline=None)
@given(random_graphs())
def test_warm_compile_identical_on_random_programs(graph):
    """Cold vs module-cache-warm compiles agree on arbitrary programs, not
    just the curated evaluation models."""
    import tempfile

    from repro import SouffleCompiler

    with tempfile.TemporaryDirectory() as directory:
        cold = SouffleCompiler(cache=directory).compile(graph)
        warm = SouffleCompiler(cache=directory).compile(graph)
        assert warm.stats.module_cache_hit
        assert warm.kernel_calls == cold.kernel_calls
        assert warm.render_kernels() == cold.render_kernels()
