"""Differential tests: cached and parallel compilation are inert.

Cold-serial, warm-cache (module tier), schedule-tier-only and parallel
compiles must emit byte-identical kernel IR, identical kernel counts and
identical simulated latency for every evaluation model. The worker pool
itself is unit-tested for deterministic ordering and serial fallback.
"""

import threading

import numpy as np
import pytest

from repro import CompileCache, SouffleCompiler, SouffleOptions
from repro.core.parallel import WorkerPool, default_worker_count
from repro.models import TINY_MODELS
from repro.runtime.executor import PlanConfig


def fingerprint(module):
    metrics = module.simulate()
    return (
        module.kernel_calls,
        module.render_kernels(),
        metrics.total_time_us,
    )


def compile_once(graph, cache=False, max_workers=1, level=4):
    compiler = SouffleCompiler(
        options=SouffleOptions.from_level(level),
        cache=cache,
        max_workers=max_workers,
    )
    return compiler.compile(graph)


@pytest.mark.parametrize("name", sorted(TINY_MODELS))
class TestDifferentialCompile:
    """One cold compile is the reference; every accelerated path must match."""

    def test_warm_module_cache_identical(self, name, tmp_path):
        graph = TINY_MODELS[name]()
        cold = compile_once(graph, cache=str(tmp_path / "c"))
        assert not cold.stats.module_cache_hit
        # Fresh CompileCache: the warm run must go through the disk.
        warm = compile_once(graph, cache=str(tmp_path / "c"))
        assert warm.stats.module_cache_hit
        assert fingerprint(warm) == fingerprint(cold)

    def test_schedule_tier_alone_identical(self, name, tmp_path):
        """With the module tier off, the full pipeline re-runs against
        cached schedules and must reproduce the search-built kernels."""
        graph = TINY_MODELS[name]()
        directory = str(tmp_path / "c")
        cold = compile_once(
            graph, cache=CompileCache(directory, modules=False)
        )
        assert cold.stats.schedule_cache_misses > 0
        warm = compile_once(
            graph, cache=CompileCache(directory, modules=False)
        )
        assert warm.stats.schedule_cache_hits > 0
        assert warm.stats.schedule_cache_misses == 0
        assert warm.stats.schedule_trials == 0  # no search ran at all
        assert fingerprint(warm) == fingerprint(cold)

    def test_parallel_build_identical(self, name):
        graph = TINY_MODELS[name]()
        serial = compile_once(graph, max_workers=1)
        parallel = compile_once(graph, max_workers=4)
        assert not parallel.stats.parallel_fallback
        assert fingerprint(parallel) == fingerprint(serial)

    def test_parallel_and_warm_compose(self, name, tmp_path):
        graph = TINY_MODELS[name]()
        reference = compile_once(graph)
        combined = compile_once(
            graph, cache=str(tmp_path / "c"), max_workers=4
        )
        assert fingerprint(combined) == fingerprint(reference)


class TestCachedModuleExecution:
    def test_cache_hit_module_still_runs(self, tmp_path):
        """A warm module materialises its program lazily and computes the
        same outputs as the cold compile."""
        graph = TINY_MODELS["mmoe"]()
        cold = compile_once(graph, cache=str(tmp_path / "c"))
        warm = compile_once(graph, cache=str(tmp_path / "c"))
        assert warm.stats.module_cache_hit
        assert not warm.has_program  # performance queries stayed lazy
        rng = np.random.default_rng(7)
        feeds = {
            t.name: rng.standard_normal(t.shape) * 0.1
            for t in cold.program.inputs
        }
        for expected, actual in zip(
            cold.run_by_name(feeds), warm.run_by_name(feeds)
        ):
            assert np.allclose(expected, actual, atol=1e-6)
        assert warm.has_program  # run() forced materialisation

    def test_warm_compile_skips_search(self, tmp_path):
        graph = TINY_MODELS["mmoe"]()
        compile_once(graph, cache=str(tmp_path / "c"))
        warm = compile_once(graph, cache=str(tmp_path / "c"))
        assert warm.stats.schedule_trials == 0
        assert set(warm.stats.phase_seconds) == {"cache_load"}


class TestWorkerPool:
    def test_results_in_submission_order(self):
        import time

        def slow_identity(value):
            time.sleep(0.002 * (5 - value))  # later items finish first
            return value

        pool = WorkerPool(4)
        items = list(range(5))
        assert pool.map(slow_identity, items) == items
        assert pool.used_workers > 1
        assert not pool.fell_back

    def test_serial_when_one_worker_or_one_item(self):
        pool = WorkerPool(1)
        assert pool.map(lambda v: v * 2, [1, 2, 3]) == [2, 4, 6]
        assert pool.used_workers == 1
        pool = WorkerPool(8)
        assert pool.map(lambda v: v * 2, [7]) == [14]
        assert pool.used_workers == 1

    def test_worker_failure_falls_back_to_serial(self):
        main_thread = threading.main_thread()

        def main_thread_only(value):
            if threading.current_thread() is not main_thread:
                raise RuntimeError("not thread-safe")
            return value + 1

        pool = WorkerPool(4)
        assert pool.map(main_thread_only, [1, 2, 3]) == [2, 3, 4]
        assert pool.fell_back
        assert pool.used_workers == 1

    def test_persistent_failure_raises_cleanly(self):
        def always_fails(_):
            raise ValueError("broken task")

        pool = WorkerPool(4)
        with pytest.raises(ValueError, match="broken task"):
            pool.map(always_fails, [1, 2])
        assert pool.fell_back

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(-1)

    def test_auto_sizing(self):
        assert default_worker_count() >= 1
        pool = WorkerPool(None)
        assert pool._resolve_workers(100) == min(100, default_worker_count())
        assert pool._resolve_workers(0) == 1

    @pytest.mark.parametrize("name", ("bert", "mmoe"))
    def test_cold_and_warm_sessions_serve_one_plan(self, name, tmp_path):
        """A warm module-cache hit serves the plan a cold compile serves:
        the default plan config and byte-identical outputs."""
        graph = TINY_MODELS[name]()
        cold = compile_once(graph, cache=str(tmp_path / "c"))
        warm = compile_once(graph, cache=str(tmp_path / "c"))
        assert warm.stats.module_cache_hit
        assert cold.session.plan.config == PlanConfig()
        assert warm.session.plan.config == cold.session.plan.config
        rng = np.random.default_rng(11)
        feeds = {
            t.name: rng.standard_normal(t.shape) * 0.1
            for t in cold.program.inputs
        }
        assert [o.tobytes() for o in warm.run_by_name(feeds)] == [
            o.tobytes() for o in cold.run_by_name(feeds)
        ]
