"""Row-gather lowering of static tensor reads (``runtime.executor``).

A static, non-identity read replays as ``np.take`` of contiguous rows with
a plan-time row index instead of the multi-array fancy-index gather. The
contract: every lowered read returns exactly the shape and bytes the
generic gather returns (unbatched: also its C-contiguity; batched: every
lane holds the bytes of the unbatched gather of that lane, C-contiguous),
and no row index holds more entries than the tensor it reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_model
from repro.models import TINY_MODELS
from repro.runtime.executor import (
    ExecutionPlan,
    PlanConfig,
    _compile_expr,
    _compile_read,
    _generic_gather,
    _grid_env,
    compile_plan_step,
    plan_row_gather,
)
from repro.te import placeholder
from repro.te.expr import BinOp, Const, IterVar, Range, Reduce, TensorRead, Var
from repro.te.patterns import match_matmul
from repro.te.traversal import collect_reads

BATCH = 3


def _axes(extents, los=None):
    los = los or [0] * len(extents)
    return [
        IterVar(Var(f"a{d}"), Range(lo, lo + e), "spatial")
        for d, (lo, e) in enumerate(zip(los, extents))
    ]


def _index_grids(read, axes):
    env = _grid_env(axes)
    return [
        np.asarray(_compile_expr(i, env, axes)[0], dtype=np.int64)
        for i in read.indices
    ]


def _lower(read, axes, batched=False):
    """(row-gather closure or None, reason, generic closure)."""
    grids = _index_grids(read, axes)
    gather, reason = plan_row_gather(read, grids, axes, batched)
    lowered = _compile_read(read, _grid_env(axes), axes, batched)[1]
    generic = _generic_gather(id(read.tensor), grids, len(axes), batched)
    return lowered, gather, reason, generic


def _assert_same_as_generic(read, axes, base):
    """Unbatched and batched (stacked and zero-stride) lowering vs generic."""
    key = id(read.tensor)
    lowered, _, _, generic = _lower(read, axes)
    if lowered({key: base}) is base:
        return  # identity read: replays as the bare array, not a gather
    got = np.asarray(lowered({key: base}))
    ref = np.asarray(generic({key: base}))
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    assert got.flags.c_contiguous == ref.flags.c_contiguous

    lowered_b, gather_b, _, generic_b = _lower(read, axes, batched=True)
    row_gathered = gather_b is not None
    lanes = [base + lane for lane in range(BATCH)]
    for stacked in (
        np.stack(lanes),
        np.broadcast_to(base, (BATCH,) + base.shape),  # bind_batch weights
    ):
        got_b = np.asarray(lowered_b({key: stacked}))
        ref_b = np.asarray(generic_b({key: stacked}))
        assert got_b.shape == ref_b.shape
        assert got_b.tobytes() == np.ascontiguousarray(ref_b).tobytes()
        # The generic batched gather puts the lane axis innermost in
        # memory; the row gather keeps every lane a contiguous block laid
        # out exactly like the unbatched gather.
        if row_gathered:
            assert got_b.flags.c_contiguous
        for lane in range(BATCH):
            lane_base = np.ascontiguousarray(stacked[lane])
            one = np.asarray(generic({key: lane_base}))
            assert got_b[lane].tobytes() == np.broadcast_to(
                one, got_b.shape[1:]
            ).tobytes()


@st.composite
def random_reads(draw):
    """A read over a random grid mixing the index forms the lowering sees."""
    n = draw(st.integers(1, 4))
    extents = [draw(st.integers(1, 5)) for _ in range(n)]
    los = [draw(st.sampled_from([0, 0, 0, 1])) for _ in range(n)]
    axes = _axes(extents, los)
    # Trailing tensor dims read by bare vars of the last grid axes (in
    # any order) are row-dim candidates; the leading dims below may still
    # depend on those axes, which must stop the row dims.
    n_rows = draw(st.integers(0, min(n, 2)))
    row_axes = draw(st.permutations(axes[n - n_rows:]))
    ndim = draw(st.integers(0 if n_rows else 1, 3))
    shape, indices = [], []
    for _ in range(ndim):
        form = draw(st.sampled_from(
            ["var", "var", "var", "offset", "conv", "reshape", "const",
             "clamp"]
        ))
        a = draw(st.sampled_from(axes))
        hi_a = a.dom.hi - 1  # largest value the axis takes
        if form == "var":
            dim = hi_a + 1 + draw(st.sampled_from([0, 0, 1]))
            index = a.var
        elif form == "offset":
            c = draw(st.integers(0, 2))
            dim = hi_a + c + 1
            index = a.var + c
        elif form == "conv":
            r = draw(st.sampled_from(axes))
            dim = 2 * hi_a + r.dom.hi
            index = BinOp("add", BinOp("mul", Const(2), a.var), r.var)
        elif form == "reshape":
            b = draw(st.sampled_from(axes))
            c = draw(st.integers(1, 4))
            m = draw(st.integers(1, 3))
            dim = m
            linear = BinOp("add", BinOp("mul", a.var, Const(b.dom.hi)), b.var)
            index = BinOp("mod", BinOp("floordiv", linear, Const(c)), Const(m))
        elif form == "const":
            dim = draw(st.integers(1, 4))
            index = Const(draw(st.integers(0, dim - 1)))
        else:  # clamp
            dim = draw(st.integers(1, 4))
            c = draw(st.integers(-2, 2))
            index = BinOp(
                "min", BinOp("max", a.var + c, Const(0)), Const(dim - 1)
            )
        shape.append(dim)
        indices.append(index)
    for ax in row_axes:
        shape.append(ax.dom.hi)
        indices.append(ax.var)
    tensor = placeholder(tuple(shape), name="src")
    return TensorRead(tensor, tuple(indices)), axes


class TestRowGatherProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=random_reads(), seed=st.integers(0, 2**16))
    def test_matches_generic_gather(self, case, seed):
        read, axes = case
        base = np.random.default_rng(seed).standard_normal(read.tensor.shape)
        _assert_same_as_generic(read, axes, base)
        _, gather, reason, _ = _lower(read, axes)
        if gather is not None:
            assert gather.rows.size <= read.tensor.num_elements
        else:
            assert reason in ("index_too_large", "out_of_range")


class TestRowGatherRule:
    def test_transposed_rows_take_from_a_contiguous_copy(self):
        x = placeholder((4, 3, 5), name="x")
        axes = _axes([5, 4, 3])
        i, j, k = (ax.var for ax in axes)
        read = x[j, k, i]
        _, gather, _, _ = _lower(read, axes)
        assert gather is not None and gather.perm == (2, 0, 1)
        _assert_same_as_generic(
            read, axes, np.random.default_rng(0).standard_normal(x.shape)
        )

    def test_bare_var_not_sweeping_the_dim_is_a_lead_dim(self):
        x = placeholder((4, 6), name="x")
        axes = _axes([4, 3])
        i, j = (ax.var for ax in axes)
        _, gather, _, _ = _lower(x[i, j], axes)  # j sweeps half the dim
        assert gather is not None and gather.row_shape == ()

    def test_axis_read_twice_stops_the_rows(self):
        x = placeholder((4, 4), name="x")
        axes = _axes([4])
        (i,) = (ax.var for ax in axes)
        read = x[i, i]
        _, gather, _, _ = _lower(read, axes)
        assert gather is not None and gather.row_shape == ()
        _assert_same_as_generic(read, axes, np.arange(16.0).reshape(4, 4))

    @pytest.mark.parametrize("offset", [1, -1])
    def test_out_of_range_index_keeps_the_generic_gather(self, offset):
        x = placeholder((4,), name="x")
        axes = _axes([4])
        read = x[axes[0].var + offset]
        _, gather, reason, generic = _lower(read, axes)
        assert gather is None and reason == "out_of_range"
        lowered = _lower(read, axes)[0]
        base = np.arange(4.0)
        if offset > 0:
            with pytest.raises(IndexError):
                lowered({id(x): base})
        else:  # negative indices wrap, as in the Evaluator
            assert lowered({id(x): base}).tobytes() == generic(
                {id(x): base}
            ).tobytes()

    def test_index_larger_than_tensor_keeps_the_generic_gather(self):
        x = placeholder((6,), name="x")
        axes = _axes([3, 3])
        i, r = (ax.var for ax in axes)
        _, gather, reason, _ = _lower(x[i + r], axes)
        assert gather is None and reason == "index_too_large"


def _node_reads(program, name_prefix, source_prefix):
    for node in program.nodes:
        if node.tensor.name.startswith(name_prefix):
            reads = collect_reads(node.tensor.op.body)
            if any(r.tensor.name.startswith(source_prefix) for r in reads):
                return node, reads
    raise AssertionError(f"no {name_prefix} node reading {source_prefix}")


def _node_axes(tensor):
    body = tensor.op.body
    extra = list(body.axes) if isinstance(body, Reduce) else []
    return list(tensor.op.axes) + extra


class TestModelReads:
    def test_bert_reshape_of_attention_takes_the_row_gather(self):
        program = compile_model(TINY_MODELS["bert"]()).program
        node, reads = _node_reads(program, "reshape", "softmax")
        axes = _node_axes(node.tensor)
        lowering = {}
        for read in reads:
            # A composed reshape map: ((i*32+j)//16)%2 on the head dim.
            assert "floordiv" in repr(read.indices[0])
            gather, reason = _lower(read, axes)[1:3]
            lowering[read.tensor.name.split("_")[0]] = (
                "row" if gather is not None else reason
            )
            if gather is not None:
                # transpose[h, rk, c]: rows along rk, from a transposed copy.
                assert gather.row_shape == (read.tensor.shape[1],)
                assert gather.perm == (0, 2, 1)
        # softmax[h, i, rk] is read over (i, j, rk): its row index would
        # hold 8*32 entries for a 2*8*8 tensor, so it stays generic.
        assert lowering == {"transpose": "row", "softmax": "index_too_large"}
        step = compile_plan_step(node.tensor, 0)
        assert step.reads == {"row": 1, "index_too_large": 1}

    def test_efficientnet_depthwise_read_keeps_the_generic_gather(self):
        program = compile_model(TINY_MODELS["efficientnet"]()).program
        node, reads = _node_reads(program, "s0r0_dw", "swish")
        axes = _node_axes(node.tensor)
        window = next(r for r in reads if r.tensor.name.startswith("swish"))
        _, gather, reason, _ = _lower(window, axes)
        assert gather is None and reason == "index_too_large"
        step = compile_plan_step(node.tensor, 0)
        assert step.reads == {"index_too_large": 1, "row": 1}

    @pytest.mark.parametrize("model", sorted(TINY_MODELS))
    def test_no_row_index_outgrows_its_tensor(self, model):
        program = compile_model(TINY_MODELS[model]()).program
        lowered = 0
        for node in program.nodes:
            if match_matmul(node.tensor) is not None:
                continue
            axes = _node_axes(node.tensor)
            for read in collect_reads(node.tensor.op.body):
                for batched in (False, True):
                    grids = _index_grids(read, axes)
                    gather, _ = plan_row_gather(read, grids, axes, batched)
                    if gather is not None:
                        lowered += 1
                        assert gather.rows.size <= read.tensor.num_elements
        assert lowered > 0
        plan = ExecutionPlan(program, config=PlanConfig(optimize=False))
        assert plan.read_lowering.get("row", 0) > 0


    def test_tiled_blocks_record_their_reads(self):
        program = compile_model(TINY_MODELS["bert"]()).program
        plan = ExecutionPlan(program, config=PlanConfig(tile_budget=1 << 12))
        tiled = [s for s in plan.steps if s.kind == "tiled"]
        assert tiled and all(sum(s.reads.values()) > 0 for s in tiled)
