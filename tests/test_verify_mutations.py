"""Mutation tests: one seeded defect per verifier pass.

Each test plants exactly one defect class from the verifier's catalogue and
asserts the *right pass* reports it at ERROR severity with a structured
diagnostic — the verifier equivalent of mutation-testing the test suite.
"""

import pytest

from repro.errors import PlanningError, VerificationError
from repro.gpu.device import a100_40gb
from repro.gpu.kernel import KernelSpec
from repro.graph import GraphBuilder, lower_graph
from repro.runtime.executor import EXEC_ITEMSIZE, ExecutionPlan, PlanConfig
from repro.runtime.memory_planner import (
    BufferAssignment,
    MemoryPlan,
    plan_memory,
)
from repro.te.expr import call
from repro.te.tensor import compute, placeholder
from repro.tir.build import BuiltKernel
from repro.tir.stmt import ComputeStmt, GridSync, KernelFunction
from repro.verify import (
    PASS_ARENA_HAZARD,
    PASS_BOUNDS,
    PASS_SHAPE_DTYPE,
    PASS_SYNC_SAFETY,
    PASS_WELLFORMED,
    ProgramView,
    Severity,
    assert_verified,
    check_sync,
    verify_plan,
    verify_program,
)


def errors_for(report_or_diags, pass_id):
    diags = list(report_or_diags)
    return [
        d for d in diags
        if d.pass_id == pass_id and d.severity is Severity.ERROR
    ]


def chain_program(length=3):
    b = GraphBuilder("chain")
    node = b.input((8, 8), name="x")
    for _ in range(length):
        node = b.relu(node)
    return lower_graph(b.build([node]))


class TestBoundsMutation:
    def test_oob_affine_read_is_an_error(self):
        a = placeholder((4,), name="a")
        bad = compute((4,), lambda i: a[i + 2], name="bad")
        view = ProgramView.from_parts([a], [bad], [bad])
        report = verify_program(view)
        found = errors_for(report, PASS_BOUNDS)
        assert found, report.render()
        assert "out of bounds" in found[0].message
        assert found[0].location.name == "bad"

    def test_fully_oob_read_is_an_error(self):
        a = placeholder((4,), name="a")
        bad = compute((2,), lambda i: a[i + 10], name="bad")
        report = verify_program(ProgramView.from_parts([a], [bad], [bad]))
        assert errors_for(report, PASS_BOUNDS), report.render()

    def test_in_bounds_read_is_clean(self):
        a = placeholder((8,), name="a")
        ok = compute((4,), lambda i: a[i + 2], name="ok")
        report = verify_program(ProgramView.from_parts([a], [ok], [ok]))
        assert not errors_for(report, PASS_BOUNDS), report.render()


class TestShapeDtypeMutation:
    def test_cast_contradicting_declared_dtype(self):
        a = placeholder((4,), name="a", dtype="float16")
        bad = compute(
            (4,), lambda i: call("cast_fp16", a[i]),
            name="bad", dtype="float32",
        )
        report = verify_program(ProgramView.from_parts([a], [bad], [bad]))
        found = errors_for(report, PASS_SHAPE_DTYPE)
        assert found, report.render()
        assert "float16" in found[0].message

    def test_float_index_is_an_error(self):
        a = placeholder((4,), name="a")
        t = placeholder((4,), name="t", dtype="float32")
        bad = compute((4,), lambda i: a[t[i]], name="bad")
        report = verify_program(ProgramView.from_parts([a, t], [bad], [bad]))
        assert errors_for(report, PASS_SHAPE_DTYPE), report.render()

    def test_index_arity_mismatch_is_an_error(self):
        # TensorRead's constructor rejects arity mismatches, so corrupt the
        # node the way a buggy transform would: behind the constructor.
        from repro.te.expr import TensorRead

        a = placeholder((4, 4), name="a")
        bad = compute((4,), lambda i: a[i, i], name="bad")
        read = object.__new__(TensorRead)
        object.__setattr__(read, "tensor", a)
        object.__setattr__(read, "indices", bad.op.body.indices[:1])
        object.__setattr__(bad.op, "body", read)
        report = verify_program(ProgramView.from_parts([a], [bad], [bad]))
        assert errors_for(report, PASS_SHAPE_DTYPE), report.render()


class TestWellformedMutation:
    def test_use_before_def(self):
        a = placeholder((4,), name="a")
        mid = compute((4,), lambda i: a[i] + 1.0, name="mid")
        top = compute((4,), lambda i: mid[i] * 2.0, name="top")
        # top listed before its producer mid: use-before-def.
        view = ProgramView.from_parts([a], [top, mid], [top])
        report = verify_program(view)
        found = errors_for(report, PASS_WELLFORMED)
        assert found, report.render()
        assert any("use-before-def" in d.message for d in found)

    def test_dangling_read(self):
        a = placeholder((4,), name="a")
        ghost = placeholder((4,), name="ghost")
        bad = compute((4,), lambda i: a[i] + ghost[i], name="bad")
        view = ProgramView.from_parts([a], [bad], [bad])  # ghost not listed
        report = verify_program(view)
        assert errors_for(report, PASS_WELLFORMED), report.render()

    def test_assert_verified_raises(self):
        a = placeholder((4,), name="a")
        bad = compute((4,), lambda i: a[i + 2], name="bad")
        view = ProgramView.from_parts([a], [bad], [bad])
        with pytest.raises(VerificationError, match="bounds"):
            assert_verified(view, "unit-test")


class TestArenaHazardMutation:
    def test_overlapping_plan_is_an_error(self):
        program = chain_program(length=3)
        good = plan_memory(
            program,
            sizer=lambda t: t.num_elements * EXEC_ITEMSIZE,
            exclusive_writes=True,
        )
        bad = MemoryPlan(exclusive_writes=True)
        bad.unshared_bytes = good.unshared_bytes
        for tensor, a in good.assignments.items():
            bad.assignments[tensor] = BufferAssignment(
                tensor, 0, a.nbytes, a.live
            )
            bad.workspace_bytes = max(bad.workspace_bytes, a.nbytes)
        report = verify_plan(
            program, bad, sizer=lambda t: t.num_elements * EXEC_ITEMSIZE
        )
        found = errors_for(report, PASS_ARENA_HAZARD)
        assert found, report.render()
        assert any("hazard" in d.message for d in found)

    def test_missing_assignment_is_an_error(self):
        program = chain_program(length=3)
        report = verify_plan(program, MemoryPlan(exclusive_writes=True))
        found = errors_for(report, PASS_ARENA_HAZARD)
        assert found, report.render()
        assert any("no arena assignment" in d.message for d in found)

    def test_executor_raises_planning_error_from_hazards(self):
        program = chain_program(length=3)
        inplace = plan_memory(
            program,
            sizer=lambda t: t.num_elements * EXEC_ITEMSIZE,
            exclusive_writes=False,
        )
        with pytest.raises(PlanningError, match="arena-hazard"):
            ExecutionPlan(
                program, memory_plan=inplace,
                config=PlanConfig(optimize=False),
            )


class TestSyncSafetyMutation:
    def _kernel(self, grid_blocks, syncs=1):
        stmts = [ComputeStmt(te_name="t0", op_type="compute", flops=1.0)]
        for k in range(syncs):
            stmts.append(GridSync())
            stmts.append(
                ComputeStmt(te_name=f"t{k + 1}", op_type="compute", flops=1.0)
            )
        spec = KernelSpec(
            name="mutant",
            grid_blocks=grid_blocks,
            threads_per_block=256,
            grid_syncs=syncs,
            te_names=[f"t{k}" for k in range(syncs + 1)],
        )
        function = KernelFunction(
            name="mutant",
            params=[],
            grid_blocks=grid_blocks,
            threads_per_block=256,
            shared_mem_bytes=0,
            stmts=stmts,
        )
        return BuiltKernel(spec=spec, function=function)

    def test_oversubscribed_grid_sync_launch(self):
        device = a100_40gb()
        wave = device.max_blocks_per_wave(256, 0)
        diags = check_sync([self._kernel(grid_blocks=wave * 4)], device)
        found = errors_for(diags, PASS_SYNC_SAFETY)
        assert found, [d.render() for d in diags]
        assert "deadlock" in found[0].message
        assert found[0].location.name == "mutant"

    def test_one_wave_launch_is_clean(self):
        device = a100_40gb()
        wave = device.max_blocks_per_wave(256, 0)
        diags = check_sync([self._kernel(grid_blocks=wave)], device)
        assert not errors_for(diags, PASS_SYNC_SAFETY), \
            [d.render() for d in diags]
