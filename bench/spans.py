"""Span tracer for the benchmark's traced runs.

The tracer wraps the module-level names that one ringlab layer looks up in
another (``ringlab.core.scc``, ``ringlab.samplers._floyd_subsets``, the
``TransactionGraph._from_members`` classmethod, ...), records one span per
call and restores every name on :meth:`Tracer.uninstall`.  Nothing in the
package is edited: the wrapping happens only inside the traced benchmark
process.

A span is ``[layer, start, end, parent, unit, note]``: ``parent`` and
``unit`` are span indices (-1 for none); ``unit`` is the enclosing cell,
trial or CLI invocation, so every span carries its trial/cell id.  Spans
stay in memory until the caller aggregates them.
"""
from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class TracePoint:
    """One binding to wrap: ``attr`` of ``owner`` ("module" or "module:Class")."""

    layer: str
    owner: str
    attr: str
    unit: bool = False  # a span of this point is a cell/trial: children inherit its id
    note: Callable | None = None  # args -> value stored on the span


def _cell_note(args):
    # estimate_not_sc_regular(k, n, trials, rng) / estimate_not_sc_binomial(p, n, trials, rng)
    return (int(args[1]), int(args[2]))


# Layers named after the src/ringlab modules that do the work.  Two bindings
# of one function (``graph.maximum_matching`` used by ``validate`` and
# ``core.maximum_matching`` used by ``core``) share a layer.
TRACE_POINTS = (
    TracePoint("samplers.stream_setup", "ringlab.samplers:_StreamFamily", "generator"),
    TracePoint("samplers.floyd", "ringlab.samplers", "_floyd_subsets"),
    TracePoint("samplers.digraph_sample", "ringlab.conjecture", "_digraph_from_in_neighbors"),
    TracePoint("samplers.graph_sample", "ringlab.adversary", "_sample_graph"),
    TracePoint("graph.sc_check", "ringlab.conjecture", "is_strongly_connected"),
    TracePoint("graph.build", "ringlab.graph:TransactionGraph", "_from_members"),
    TracePoint("graph.matching", "ringlab.graph", "maximum_matching"),
    TracePoint("graph.matching", "ringlab.core", "maximum_matching"),
    TracePoint("graph.induced_digraph", "ringlab.core", "induced_digraph"),
    TracePoint("graph.scc", "ringlab.core", "scc"),
    TracePoint("graph.reach", "ringlab.core", "reachable_from"),
    TracePoint("graph.validate", "ringlab.cli", "validate"),
    TracePoint("core.flags", "ringlab.core", "_core_member_flags"),
    TracePoint("core.flags", "ringlab.adversary", "_core_member_flags"),
    TracePoint("core.core", "ringlab.core", "core"),
    TracePoint("core.report", "ringlab.cli", "core_report"),
    TracePoint("adversary.trial", "ringlab.adversary", "_experiment", unit=True),
    TracePoint("adversary.guess", "ringlab.adversary", "_guess_min_degree_ring"),
    TracePoint("adversary.corrupt", "ringlab.adversary", "_corrupt_users"),
    TracePoint("adversary.corrupt", "ringlab.adversary", "_remove_users"),
    TracePoint("conjecture.campaign", "ringlab.conjecture", "estimate_not_sc_regular",
               unit=True, note=_cell_note),
    TracePoint("conjecture.campaign", "ringlab.conjecture", "estimate_not_sc_binomial",
               unit=True, note=_cell_note),
    TracePoint("cli.parse", "ringlab.cli", "parse_edge_list"),
)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Collects spans while installed; a no-op pass-through while not."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.absent: set[str] = set()  # layers none of whose bindings exist
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, unit: bool = False, note=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [layer, clock(), 0.0, parent,
                    index if unit else (spans[parent][4] if parent >= 0 else -1),
                    note(args) if note else None]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def call(self, layer: str, fn, *args, unit: bool = True, **kwargs):
        """Call ``fn`` from the benchmark, inside a span when installed."""
        if not self.active:
            return fn(*args, **kwargs)
        return self._wrap(layer, fn, unit=unit)(*args, **kwargs)

    def install(self, points=TRACE_POINTS) -> None:
        present: set[str] = set()
        for point in points:
            owner = _resolve_owner(point.owner)
            raw = None if owner is None else vars(owner).get(point.attr)
            if raw is None:
                continue
            present.add(point.layer)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(point.layer, raw.__func__, point.unit, point.note))
            else:
                wrapped = self._wrap(point.layer, raw, point.unit, point.note)
            self._saved.append((owner, point.attr, raw))
            setattr(owner, point.attr, wrapped)
        self.absent = {p.layer for p in points} - present
        self.active = True

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        self.active = False

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def count(self, layer: str, lo: int = 0, hi: int | None = None) -> int:
        """Spans of ``layer`` among ``spans[lo:hi]``."""
        return sum(1 for span in self.spans[lo:hi] if span[0] == layer)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per layer: (calls, total self time).

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: dict[str, tuple[int, float]] = {}
    for i, span in enumerate(spans):
        calls, total = out.get(span[0], (0, 0.0))
        out[span[0]] = (calls + 1, total + (span[2] - span[1]) - child_time[i])
    return out
