"""Stateful property test: one serving session against the Evaluator.

A hypothesis :class:`RuleBasedStateMachine` drives a single
:class:`InferenceSession` through an arbitrary interleaving of single
requests, batches, weight rebinding, in-place weight changes (bound or fed
with the request) and profile flushes. After every operation each output
must equal, byte for byte, the :class:`Evaluator` over the feeds the
request saw: the bound weight table with the request's own feeds on top.
Nothing the session keeps between requests — arena pools, batched plans,
the bound weight table, profile accumulators — may make a result depend on
history.
"""

import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.graph import GraphBuilder, lower_graph
from repro.runtime.session import InferenceSession
from repro.te.evaluator import Evaluator


def serving_program():
    """``softmax(relu(x @ relu(w1)) @ w2)``: a weight-only subgraph, a
    fusable map chain, two matmuls and a reduction."""
    b = GraphBuilder("stateful")
    x = b.input((3, 6), name="x")
    w1 = b.weight((6, 8), name="w1")
    w2 = b.weight((8, 4), name="w2")
    hidden = b.relu(b.matmul(x, b.relu(w1)))
    return lower_graph(b.build([b.softmax(b.matmul(hidden, w2), axis=-1)]))


PROGRAM = serving_program()
X, W1, W2 = PROGRAM.inputs
WEIGHTS = (W1, W2)

seeds = st.integers(0, 2**32 - 1)


class SessionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.profile_dir = tempfile.mkdtemp(prefix="stateful-profiles-")
        self.session = InferenceSession(
            PROGRAM,
            batch_buckets=(2, 4),
            collect_profiles=True,
            profile_store=self.profile_dir,
        )
        self.bound = {}
        # A weight array the machine feeds with requests (overriding the
        # bound one) and may change in place between them.
        self.request_w1 = None
        self.requests = 0

    def teardown(self):
        shutil.rmtree(self.profile_dir, ignore_errors=True)

    def feeds_for(self, seed, override):
        rng = np.random.default_rng(seed)
        feeds = {X: rng.standard_normal(X.shape)}
        if override:
            feeds[W1] = self.request_w1
        return feeds

    def check(self, feeds, got):
        merged = {t: self.bound[t] for t in WEIGHTS}
        merged.update(feeds)
        ev = Evaluator(merged)
        want = [ev.value_of(t) for t in PROGRAM.outputs]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def bind(self, seed):
        rng = np.random.default_rng(seed)
        self.bound = {t: rng.standard_normal(t.shape) for t in WEIGHTS}
        self.session.plan_state.bind_weights(
            {t.name: v for t, v in self.bound.items()}
        )

    @initialize(seed=seeds)
    def bind_initial(self, seed):
        self.bind(seed)
        self.request_w1 = np.random.default_rng(seed + 1).standard_normal(
            W1.shape
        )

    @rule(seed=seeds)
    def rebind(self, seed):
        self.bind(seed)

    @rule(seed=seeds, override=st.booleans())
    def run(self, seed, override):
        feeds = self.feeds_for(seed, override)
        self.check(feeds, self.session.run(feeds))
        self.requests += 1

    @rule(seed=seeds, overrides=st.lists(st.booleans(), min_size=1,
                                         max_size=5))
    def run_batch(self, seed, overrides):
        requests = [
            self.feeds_for(seed + lane, override)
            for lane, override in enumerate(overrides)
        ]
        for feeds, got in zip(requests, self.session.run_batch(requests)):
            self.check(feeds, got)
        self.requests += len(requests)

    @rule(which=st.sampled_from(["w1", "w2", "request"]),
          scale=st.sampled_from([-1.0, 0.5, 2.0]))
    def change_weight_in_place(self, which, scale):
        target = {
            "w1": lambda: self.bound[W1],
            "w2": lambda: self.bound[W2],
            "request": lambda: self.request_w1,
        }[which]()
        target *= scale
        target += 0.25

    @rule()
    def flush_profiles(self):
        assert self.session.flush_profiles() >= 0

    @invariant()
    def every_request_counted(self):
        assert self.session.arena_state.request_count == self.requests


SessionMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestSessionStateMachine = SessionMachine.TestCase
