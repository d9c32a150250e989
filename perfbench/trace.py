"""Spans around the program's public functions, installed from outside.

The traced run wraps the public entry points of each runtime layer (the
table in ``LAYERS``) with a recorder. It edits no file of the program:
the wrappers are installed on the classes at run time and removed after.

Each span records its name, start, end, parent span and the ids of the
requests that caused it. The closed loops give each request one id; on
the open loops a batch span carries the ids of every request aboard,
found from the feed dicts the benchmark submitted (``tag``). Spans stay
in memory until :meth:`Tracer.write`.

A span's self time is its duration minus the time its child spans cover.
Children run on the parent's thread and nest inside it, so the part they
cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.batching import BatchingServer
from repro.runtime.executor import BatchedExecutionPlan, ExecutionPlan
from repro.runtime.module import CompiledModule
from repro.runtime.session import InferenceSession, PlanState
from repro.runtime.sharding import ShardedServer

# (owner, attribute, layer the span's self time is charged to). Span names
# are "Owner.attribute"; several functions can share one layer.
LAYERS: Tuple[Tuple[type, str, str], ...] = (
    (CompiledModule, "run", "module.run"),
    (InferenceSession, "run", "session.other"),
    (InferenceSession, "run_batch", "session.other"),
    (PlanState, "with_weights", "session.bind"),
    (ExecutionPlan, "bind_feeds", "session.bind"),
    (BatchedExecutionPlan, "bind_batch", "session.bind"),
    (ExecutionPlan, "execute", "executor.execute"),
    (PlanState, "__init__", "executor.plan_build"),
    (PlanState, "batch_plan", "executor.batch_plan"),
    (BatchingServer, "submit", "batching.submit"),
    (ShardedServer, "submit", "sharding.submit"),
)

LAYER_OF: Dict[str, str] = {
    f"{owner.__name__}.{attr}": layer for owner, attr, layer in LAYERS
}

# Span record fields (a list, filled in place: end is set on exit).
NAME, START, END, PARENT, RIDS = range(5)


class Tracer:
    """In-memory span recorder with wrappers over the public functions."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        # Serialises appending a span with reading its index: the load
        # generator and the server's dispatcher begin spans concurrently.
        self._append = threading.Lock()
        self._local = threading.local()
        self._rid_of_feeds: Dict[int, int] = {}
        self._originals: List[Tuple[type, str, Callable]] = []

    # ---- request ids -----------------------------------------------------

    def tag(self, feeds: dict, rid: int) -> None:
        """Remember which request a feed dict belongs to."""
        self._rid_of_feeds[id(feeds)] = rid

    def clear_tags(self) -> None:
        """Forget every tag (call once the tagged requests resolved)."""
        self._rid_of_feeds.clear()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _rids(self, args: Sequence) -> Tuple[int, ...]:
        """Request ids a call serves: from the feeds (one dict, or a list
        of them) it takes after ``self``, else its parent span's."""
        feeds = args[1] if len(args) > 1 else None
        if isinstance(feeds, dict):
            feeds = [feeds]
        if isinstance(feeds, list):
            rids = tuple(
                self._rid_of_feeds[id(f)]
                for f in feeds if id(f) in self._rid_of_feeds
            )
            if rids:
                return rids
        stack = self._stack()
        return self.spans[stack[-1]][RIDS] if stack else ()

    # ---- spans -----------------------------------------------------------

    def begin(self, name: str, rids: Tuple[int, ...] = ()) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), 0.0, parent, rids]
        with self._append:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name, tracer._rids(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` (idempotent per tracer)."""
        if self._originals:
            return
        for owner, attr, _ in LAYERS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrapper(f"{owner.__name__}.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    # ---- analysis --------------------------------------------------------

    def self_seconds(self, first: int = 0) -> List[float]:
        """Self time of every span from index ``first`` on."""
        spans = self.spans
        child = [0.0] * len(spans)
        for i in range(first, len(spans)):
            parent = spans[i][PARENT]
            if parent >= first:
                child[parent] += spans[i][END] - spans[i][START]
        return [
            spans[i][END] - spans[i][START] - child[i]
            for i in range(first, len(spans))
        ]

    def layer_seconds(self, first: int = 0) -> Dict[str, float]:
        """Total self time per layer over spans ``first..``."""
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans[first:], self.self_seconds(first)):
            totals[LAYER_OF.get(span[NAME], span[NAME])] += own
        return dict(totals)

    def durations(self, name: str, first: int = 0) -> List[float]:
        return [
            s[END] - s[START] for s in self.spans[first:] if s[NAME] == name
        ]

    def write(self, path: str, info: Optional[dict] = None) -> None:
        """Write every span (and optional run info) as one JSON document."""
        doc = {
            "fields": ["name", "start", "end", "parent", "request_ids"],
            "spans": self.spans,
            "info": info or {},
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
