"""Tests for the numpy evaluator: every expression form vs a reference."""

import warnings

import numpy as np
import pytest
from scipy import special

from repro.errors import ExecutionError
from repro.runtime.executor import compile_plan_step
from repro.te import (
    Evaluator,
    call,
    compute,
    evaluate,
    evaluate_many,
    if_then_else,
    max_expr,
    maximum,
    minimum,
    placeholder,
    reduce_axis,
    sum_expr,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


class TestElementwise:
    def test_identity(self, rng):
        a = placeholder((4, 5))
        b = compute((4, 5), lambda i, j: a[i, j])
        x = rng.standard_normal((4, 5))
        assert np.allclose(evaluate(b, {a: x}), x)

    def test_arith(self, rng):
        a = placeholder((4, 5))
        b = compute((4, 5), lambda i, j: a[i, j] * 2.0 + 1.0)
        x = rng.standard_normal((4, 5))
        assert np.allclose(evaluate(b, {a: x}), 2 * x + 1)

    @pytest.mark.parametrize(
        "func,ref",
        [
            ("exp", np.exp),
            ("tanh", np.tanh),
            ("sigmoid", lambda x: 1 / (1 + np.exp(-x))),
            ("relu", lambda x: np.maximum(x, 0)),
            ("erf", special.erf),
            ("gelu", lambda x: 0.5 * x * (1 + special.erf(x / np.sqrt(2)))),
            ("abs", np.abs),
        ],
    )
    def test_intrinsics(self, rng, func, ref):
        a = placeholder((3, 3))
        b = compute((3, 3), lambda i, j: call(func, a[i, j]))
        x = rng.standard_normal((3, 3))
        assert np.allclose(evaluate(b, {a: x}), ref(x))

    def test_sqrt_positive_domain(self, rng):
        a = placeholder((3,))
        b = compute((3,), lambda i: call("sqrt", a[i]))
        x = np.abs(rng.standard_normal(3)) + 0.1
        assert np.allclose(evaluate(b, {a: x}), np.sqrt(x))

    def test_sigmoid_saturates_without_overflow_warning(self):
        a = placeholder((2,))
        b = compute((2,), lambda i: call("sigmoid", a[i]))
        x = np.array([-1000.0, 1000.0])
        out = np.empty(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = evaluate(b, {a: x})
            # The plan step compiler shares the evaluator's intrinsics.
            compile_plan_step(b, 0).run({id(a): x, id(b): out})
        assert ref.tolist() == [0.0, 1.0]
        assert out.tobytes() == ref.tobytes()

    def test_select(self, rng):
        a = placeholder((6,))
        b = compute((6,), lambda i: if_then_else(a[i] > 0, a[i], 0.0))
        x = rng.standard_normal(6)
        assert np.allclose(evaluate(b, {a: x}), np.maximum(x, 0))

    def test_min_max(self, rng):
        a = placeholder((6,))
        b = compute((6,), lambda i: minimum(maximum(a[i], -1.0), 1.0))
        x = rng.standard_normal(6) * 3
        assert np.allclose(evaluate(b, {a: x}), np.clip(x, -1, 1))

    def test_index_remap(self, rng):
        a = placeholder((4, 6))
        b = compute((6, 4), lambda i, j: a[j, i])
        x = rng.standard_normal((4, 6))
        assert np.allclose(evaluate(b, {a: x}), x.T)

    def test_floordiv_mod_indexing(self, rng):
        a = placeholder((3, 4))
        flat = compute((12,), lambda i: a[i // 4, i % 4])
        x = rng.standard_normal((3, 4))
        assert np.allclose(evaluate(flat, {a: x}), x.reshape(-1))

    def test_cast_fp16_quantizes(self, rng):
        """cast_fp16 must round-trip through float16, not be an identity:
        values pick up real fp16 rounding error."""
        a = placeholder((8,))
        b = compute((8,), lambda i: call("cast_fp16", a[i]))
        x = rng.standard_normal(8) * 3.0 + 1 / 3
        got = evaluate(b, {a: x})
        expected = x.astype(np.float16).astype(np.float64)
        assert np.array_equal(got, expected)
        assert got.dtype == np.float64          # compute type is preserved
        assert not np.array_equal(got, x)       # quantization really happened

    def test_cast_fp16_halves_resolution(self):
        a = placeholder((1,))
        b = compute((1,), lambda i: call("cast_fp16", a[i]))
        # 1 + 2^-12 is representable in fp32 but rounds away in fp16.
        x = np.array([1.0 + 2.0 ** -12])
        assert evaluate(b, {a: x})[0] == 1.0

    def test_cast_fp32_quantizes(self, rng):
        a = placeholder((8,))
        b = compute((8,), lambda i: call("cast_fp32", a[i]))
        x = rng.standard_normal(8) + 1 / 3
        got = evaluate(b, {a: x})
        assert np.array_equal(got, x.astype(np.float32).astype(np.float64))
        assert got.dtype == np.float64


class TestReductions:
    def test_matmul_einsum_path(self, rng):
        a = placeholder((5, 7))
        b = placeholder((7, 3))
        rk = reduce_axis((0, 7))
        c = compute((5, 3), lambda i, j: sum_expr(a[i, rk] * b[rk, j], [rk]))
        xa, xb = rng.standard_normal((5, 7)), rng.standard_normal((7, 3))
        assert np.allclose(evaluate(c, {a: xa, b: xb}), xa @ xb)

    def test_batched_matmul(self, rng):
        a = placeholder((2, 4, 6))
        b = placeholder((2, 6, 3))
        rk = reduce_axis((0, 6))
        c = compute(
            (2, 4, 3), lambda n, i, j: sum_expr(a[n, i, rk] * b[n, rk, j], [rk])
        )
        xa = rng.standard_normal((2, 4, 6))
        xb = rng.standard_normal((2, 6, 3))
        assert np.allclose(evaluate(c, {a: xa, b: xb}), xa @ xb)

    def test_generic_reduce_sum(self, rng):
        a = placeholder((4, 6))
        rk = reduce_axis((0, 6))
        s = compute((4,), lambda i: sum_expr(a[i, rk], [rk]))
        x = rng.standard_normal((4, 6))
        assert np.allclose(evaluate(s, {a: x}), x.sum(axis=1))

    def test_reduce_max(self, rng):
        a = placeholder((4, 6))
        rk = reduce_axis((0, 6))
        m = compute((4,), lambda i: max_expr(a[i, rk], [rk]))
        x = rng.standard_normal((4, 6))
        assert np.allclose(evaluate(m, {a: x}), x.max(axis=1))

    def test_conv_style_affine_reduce(self, rng):
        a = placeholder((6,))
        rk = reduce_axis((0, 3))
        w = placeholder((3,))
        c = compute((4,), lambda i: sum_expr(a[i + rk] * w[rk], [rk]))
        xa, xw = rng.standard_normal(6), rng.standard_normal(3)
        ref = np.correlate(xa, xw, mode="valid")
        assert np.allclose(evaluate(c, {a: xa, w: xw}), ref)


class TestMachinery:
    def test_memoisation_shares_intermediates(self, rng):
        a = placeholder((4,))
        b = compute((4,), lambda i: a[i] * 2)
        c = compute((4,), lambda i: b[i] + 1)
        d = compute((4,), lambda i: b[i] - 1)
        x = rng.standard_normal(4)
        ev = Evaluator({a: x})
        results = {t: ev.value_of(t) for t in (c, d)}
        assert np.allclose(results[c], 2 * x + 1)
        assert np.allclose(results[d], 2 * x - 1)

    def test_evaluate_many(self, rng):
        a = placeholder((4,))
        b = compute((4,), lambda i: a[i] * 2)
        out = evaluate_many([b], {a: rng.standard_normal(4)})
        assert b in out

    def test_missing_feed_raises(self):
        a = placeholder((4,))
        b = compute((4,), lambda i: a[i])
        with pytest.raises(ExecutionError):
            evaluate(b, {})

    def test_wrong_feed_shape_raises(self):
        a = placeholder((4,))
        with pytest.raises(ExecutionError):
            Evaluator({a: np.zeros((5,))})

    def test_grid_guard(self):
        a = placeholder((1 << 14,))
        rk = reduce_axis((0, 1 << 14))
        # The +1.0 defeats the einsum fast path, forcing the generic grid
        # evaluator, whose footprint guard must trip.
        big = compute(
            (1 << 14,), lambda i: sum_expr(a[rk] * a[i] + 1.0, [rk])
        )
        with pytest.raises(ExecutionError):
            evaluate(big, {a: np.zeros(1 << 14)})
