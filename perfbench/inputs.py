"""Seeded weights and request inputs, and the correctness gate.

Every array the benchmark feeds the program is drawn here from the
workload seed, so one seed gives the same inputs on every run.

Weights are scaled by 1/sqrt(fan-in). With unit-normal weights the tiny
resnext outputs reach ~7e6, where a divergence between the served result
and the oracle could hide in inf/NaN; scaled weights keep every model's
activations near unit range.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.te.evaluator import Evaluator
from repro.te.tensor import Tensor


def fan_in(tensor: Tensor) -> int:
    """Inputs summed into one output of the op that reads this weight.

    Dense weights are ``(in, out)``; conv weights are
    ``(out, in/groups, kh, kw)``. Biases and per-channel scales
    (1-d, or ``(C, 1, 1)``) multiply or add elementwise: fan-in 1.
    """
    shape = tensor.shape
    if len(shape) == 2:
        return shape[0]
    if len(shape) == 4:
        return int(np.prod(shape[1:]))
    return 1


# Arrays are keyed by the placeholder's position in ``program.inputs`` of
# the lowered graph: building a model twice in one process names its
# tensors differently, positions stay the same.
Positional = Dict[int, np.ndarray]


def make_weights(placeholders: Sequence[Tensor], seed) -> Positional:
    """One weight set for the ``role == "weight"`` placeholders."""
    rng = np.random.default_rng(seed)
    return {
        i: rng.standard_normal(t.shape) / math.sqrt(fan_in(t))
        for i, t in enumerate(placeholders)
        if t.role == "weight"
    }


def make_requests(
    placeholders: Sequence[Tensor], count: int, seed
) -> List[Positional]:
    """``count`` per-request feeds for the non-weight placeholders."""
    rng = np.random.default_rng(seed)
    return [
        {
            i: rng.standard_normal(t.shape)
            for i, t in enumerate(placeholders)
            if t.role != "weight"
        }
        for _ in range(count)
    ]


def keyed(
    arrays: Positional, placeholders: Sequence[Tensor],
    tensors: Mapping[str, Tensor],
) -> Dict[Tensor, np.ndarray]:
    """Positional arrays keyed by the tensors of one program, matched by
    name to the lowered graph's ``placeholders``."""
    return {tensors[placeholders[i].name]: v for i, v in arrays.items()}


def oracle(outputs: Sequence[Tensor], feeds: Mapping[Tensor, np.ndarray]):
    """Reference outputs from a fresh tree-walking ``Evaluator``."""
    evaluator = Evaluator(feeds)
    return [evaluator.value_of(t) for t in outputs]


def matches(got: Sequence[np.ndarray], want: Sequence[np.ndarray]) -> bool:
    """Byte-for-byte equality with the oracle; non-finite counts as wrong."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        g = np.asarray(g)
        if g.shape != w.shape or g.dtype != w.dtype:
            return False
        if not np.all(np.isfinite(g)) or g.tobytes() != w.tobytes():
            return False
    return True
