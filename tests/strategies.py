"""Shared hypothesis strategies for the property suites.

:func:`random_graphs` draws a random DAG of elementwise, memory, matmul and
reduce operators over small 2-D tensors. It keeps every activation finite
under :func:`repro.transform.random_feeds` (standard-normal feeds): each
frontier tensor carries an upper bound on its magnitude, and ``exp`` is
only drawn on a source whose bound is small enough that neither it nor
anything downstream can overflow float64.
"""

import math

from hypothesis import strategies as st

from repro.graph import GraphBuilder

# Magnitude taken as the bound of a standard-normal feed (|z| > 6 has
# probability ~2e-9 per element).
FEED_BOUND = 6.0
# exp(50) ~ 5e21; eight ops of matmul (x48) or row sums (x32) on top stay
# below 1e36, far from float64 overflow.
EXP_SOURCE_BOUND = 50.0

BOUNDED_UNARY = {"relu": None, "sigmoid": 1.0, "tanh": 1.0}


@st.composite
def random_graphs(draw, name="prop"):
    """A random DAG of elementwise / memory / matmul / reduce operators over
    small 2-D tensors, with finite activations (see module docstring)."""
    builder = GraphBuilder(name)
    rows = draw(st.sampled_from([2, 3, 4]))
    cols = draw(st.sampled_from([4, 6, 8]))
    frontier = [builder.input((rows, cols), name="x0")]
    bounds = [FEED_BOUND]
    num_ops = draw(st.integers(2, 8))
    for index in range(num_ops):
        pick = draw(st.integers(0, len(frontier) - 1))
        source, bound = frontier[pick], bounds[pick]
        choice = draw(st.integers(0, 5))
        if choice <= 1:
            ops = sorted(BOUNDED_UNARY)
            if bound <= EXP_SOURCE_BOUND:
                ops.append("exp")
            op = draw(st.sampled_from(ops))
            node = getattr(builder, op)(source)
            if op == "exp":
                bound = math.exp(bound)
            elif BOUNDED_UNARY[op] is not None:
                bound = BOUNDED_UNARY[op]
        elif choice == 2:
            node = builder.transpose(
                source, tuple(reversed(range(len(source.shape))))
            )
        elif choice == 3:
            total = 1
            for extent in source.shape:
                total *= extent
            node = builder.reshape(source, (total,))
        elif choice == 4 and len(source.shape) == 2:
            k = source.shape[1]
            w = builder.weight((k, draw(st.sampled_from([4, 6]))),
                               name=f"w{index}")
            node = builder.matmul(source, w)
            bound *= FEED_BOUND * k
        else:
            axes = (len(source.shape) - 1,)
            node = builder.reduce_sum(source, axes, keepdims=True)
            bound *= source.shape[-1]
        frontier.append(node)
        bounds.append(bound)
    outputs = [frontier[-1]]
    if draw(st.booleans()) and len(frontier) > 2:
        outputs.append(frontier[-2])
    return builder.build(outputs)
