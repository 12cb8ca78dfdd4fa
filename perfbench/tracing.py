"""In-memory span recorder, the layer wrappers, and self-time arithmetic.

The benchmark records spans from its own files: :func:`install_engine`
and :func:`install_service` wrap the public entry points of each program
layer (by replacing the name the calling module looks up), and
:meth:`Recorder.uninstall` puts the originals back, so the untraced
passes execute the program unchanged.

A span is ``[name, start, end, parent, rid]``: ``parent`` is the
enclosing span record (found through a context variable, so threads and
asyncio tasks each keep their own stack) and ``rid`` groups the spans
of one request.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import re
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_parent: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
_rid: contextvars.ContextVar = contextvars.ContextVar("rid", default=None)

NAME = 0
START = 1
END = 2
PARENT = 3
RID = 4

#: Layer of each span name: the first matching prefix wins.
LAYERS = (
    "bench.client",
    "service.aio",
    "service.wire",
    "service.server",
    "live",
    "core.maintenance",
    "core.engine",
    "core.candidates",
    "core.bounds_cache",
    "core.outreach",
    "flow",
    "estimators",
    "graph.paths",
    "accel",
)
BUILD_LAYERS = ("graph.generate", "core.builder", "partition")


def layer_of(name: str) -> str:
    for layer in LAYERS + BUILD_LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return "other"


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str, rid=None) -> Tuple[list, contextvars.Token]:
        parent = _parent.get()
        record = [name, time.perf_counter(), None, parent,
                  _rid.get() if rid is None else rid]
        self.spans.append(record)
        return record, _parent.set(record)

    @staticmethod
    def close(record: list, token: contextvars.Token) -> None:
        record[END] = time.perf_counter()
        _parent.reset(token)

    def span(self, name: str, rid=None) -> "_Span":
        return _Span(self, name, rid)

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``after(result, args, kwargs)`` may add counters from the call.
        """
        raw = inspect.getattr_static(owner, attr)
        is_static = isinstance(raw, staticmethod)
        original = getattr(owner, attr)
        recorder = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                record, token = recorder.open(name)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    recorder.close(record, token)
                if after is not None:
                    after(result, args, kwargs)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                record, token = recorder.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.close(record, token)
                if after is not None:
                    after(result, args, kwargs)
                return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, raw))

    def replace(self, owner, attr: str, make) -> None:
        """Install ``make(original)`` in place of ``owner.attr``."""
        raw = inspect.getattr_static(owner, attr)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def export(self) -> List[list]:
        """Spans with parents as list indices (JSON-able)."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        return [
            [s[NAME], s[START], s[END],
             index.get(id(s[PARENT])) if s[PARENT] is not None else None,
             s[RID]]
            for s in self.spans
        ]


class _Span:
    __slots__ = ("recorder", "name", "rid", "record", "token", "rid_token")

    def __init__(self, recorder: Recorder, name: str, rid) -> None:
        self.recorder = recorder
        self.name = name
        self.rid = rid

    def __enter__(self) -> list:
        self.rid_token = _rid.set(self.rid) if self.rid is not None else None
        self.record, self.token = self.recorder.open(self.name, self.rid)
        return self.record

    def __exit__(self, *exc) -> None:
        self.recorder.close(self.record, self.token)
        if self.rid_token is not None:
            _rid.reset(self.rid_token)


# ----------------------------------------------------------------------
# The layer wrappers
# ----------------------------------------------------------------------
def install_engine(rec: Recorder) -> None:
    """Wrap the index build, filter, verification and update layers."""
    engine = importlib.import_module("repro.core.engine")
    candidates = importlib.import_module("repro.core.candidates")
    outreach = importlib.import_module("repro.core.outreach")
    bounds_cache = importlib.import_module("repro.core.bounds_cache")
    verification = importlib.import_module("repro.core.verification")
    builder = importlib.import_module("repro.core.builder")
    bipartition = importlib.import_module("repro.partition.bipartition")
    planner = importlib.import_module("repro.estimators.planner")
    registry = importlib.import_module("repro.estimators.registry")
    sampling = importlib.import_module("repro.graph.sampling")
    csr = importlib.import_module("repro.accel.csr")
    maintenance = importlib.import_module("repro.core.maintenance")
    live = importlib.import_module("repro.live.engine")

    # Index build.
    rec.wrap(engine, "build_rqtree", "core.builder.build")
    rec.wrap(builder, "bisect_uncertain_cluster", "partition.bisect")
    rec.wrap(bipartition, "coarsen_once", "partition.coarsen")
    rec.wrap(bipartition, "initial_bisection", "partition.initial")
    rec.wrap(bipartition, "fm_refine", "partition.refine")

    # Filter.
    rec.wrap(engine.RQTreeEngine, "query", "core.engine.query")
    rec.wrap(engine, "generate_candidates", "core.candidates.generate")
    rec.wrap(candidates, "outreach_upper_bound", "core.outreach.bound")

    def count_arcs(result, args, kwargs):
        rec.count("flow.network.arcs", result[1].num_edges)

    rec.wrap(outreach, "multi_terminal_max_flow", "flow.maxflow", count_arcs)

    def cache_get(original):
        @functools.wraps(original)
        def get(self, graph, cluster):
            hits = self.hits
            record, token = rec.open("core.bounds_cache.get")
            try:
                return original(self, graph, cluster)
            finally:
                rec.close(record, token)
                rec.count("core.bounds_cache.lookups")
                rec.count("core.bounds_cache.hits", self.hits - hits)
        return get

    rec.replace(bounds_cache.ClusterBoundsCache, "get", cache_get)

    # Verification.
    rec.wrap(verification, "most_likely_path_probabilities",
             "graph.paths.dijkstra")
    rec.wrap(verification, "hop_bounded_path_probabilities",
             "graph.paths.dijkstra")
    rec.wrap(planner.QueryPlanner, "plan", "estimators.planner")
    seen = set()
    for method in registry.available_methods(include_auto=False):
        cls = type(registry.get_estimator(method))
        if cls not in seen:
            seen.add(cls)
            rec.wrap(cls, "estimate", "estimators.estimate")

    def count_worlds(result, args, kwargs):
        worlds = kwargs.get("num_worlds", args[2] if len(args) > 2 else 0)
        rec.count("accel.worlds", worlds)

    rec.wrap(sampling, "sample_reach_batch", "accel.kernel", count_worlds)
    rec.wrap(csr.CSRGraph, "__init__", "accel.csr.build")

    # Update plane.
    rec.wrap(live.LiveRQTreeEngine, "apply", "live.apply")
    rec.wrap(live.LiveRQTreeEngine, "query", "live.query")
    rec.wrap(maintenance.DynamicRQTreeEngine, "apply", "core.maintenance.apply")
    rec.wrap(maintenance.DynamicRQTreeEngine, "_rebuild",
             "core.maintenance.repair")


_RID_PATTERN = re.compile(rb'"rid":\s*(\d+)')


def install_service(rec: Recorder) -> None:
    """Wrap the serving layers (asyncio gateway, wire, service)."""
    gateway = importlib.import_module("repro.service.aio_gateway")
    server = importlib.import_module("repro.service.server")

    def dispatch(original):
        @functools.wraps(original)
        async def run(self, writer, method, path, body, keep_alive):
            found = _RID_PATTERN.search(body[:64]) if body else None
            rid_token = _rid.set(int(found.group(1)) if found else None)
            record, token = rec.open("service.aio.dispatch")
            try:
                return await original(self, writer, method, path, body,
                                      keep_alive)
            finally:
                rec.close(record, token)
                _rid.reset(rid_token)
        return run

    rec.replace(gateway.AioGateway, "_dispatch", dispatch)
    rec.wrap(gateway, "parse_query_body", "service.wire.parse")
    rec.wrap(gateway, "result_to_json", "service.wire.encode")
    rec.wrap(gateway, "update_to_json", "service.wire.encode")
    rec.wrap(gateway.AioGateway, "_write_response", "service.wire.write")

    def submit(original):
        @functools.wraps(original)
        def run(self, *args, **kwargs):
            # The service span runs from submission until the future
            # settles (on a worker thread, or at once on a cache hit).
            query = ["service.server.query", time.perf_counter(), None,
                     _parent.get(), _rid.get()]
            rec.spans.append(query)
            record, token = rec.open("service.server.submit")
            try:
                future = original(self, *args, **kwargs)
            finally:
                rec.close(record, token)
            record[PARENT] = query
            future._bench_span = query

            def settle(_future):
                query[END] = time.perf_counter()

            future.add_done_callback(settle)
            return future
        return run

    rec.replace(server.ReliabilityService, "submit", submit)

    def execute(original):
        # The worker pool holds a bound ``_handle`` from construction, so
        # the worker side is entered through ``_execute``, which it looks
        # up per request.
        @functools.wraps(original)
        def run(self, request):
            rec.count("service.engine_calls")
            query = getattr(request.future, "_bench_span", None)
            rid_token = _rid.set(query[RID] if query is not None else None)
            parent_token = _parent.set(query)
            record, token = rec.open("service.server.execute")
            try:
                return original(self, request)
            finally:
                rec.close(record, token)
                _parent.reset(parent_token)
                _rid.reset(rid_token)
        return run

    rec.replace(server.ReliabilityService, "_execute", execute)

    # Updates run on an executor thread, which does not inherit the
    # request's context: hand it over through the parsed batch.
    pending: Dict[int, Tuple[object, object]] = {}

    def parse_update(original):
        @functools.wraps(original)
        def run(raw):
            record, token = rec.open("service.wire.parse")
            try:
                ops = original(raw)
            finally:
                rec.close(record, token)
            pending[id(ops)] = (_parent.get(), _rid.get())
            return ops
        return run

    rec.replace(gateway, "parse_update_body", parse_update)

    def apply_updates(original):
        @functools.wraps(original)
        def run(self, ops):
            parent, rid = pending.pop(id(ops), (None, None))
            rid_token = _rid.set(rid)
            parent_token = _parent.set(parent)
            record, token = rec.open("service.server.update")
            try:
                return original(self, ops)
            finally:
                rec.close(record, token)
                _parent.reset(parent_token)
                _rid.reset(rid_token)
        return run

    rec.replace(server.ReliabilityService, "apply_updates", apply_updates)


# ----------------------------------------------------------------------
# Self time and per-layer reports
# ----------------------------------------------------------------------
def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals
        if b > start and a < end
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Per span (exported form, parents as indices): its duration minus
    the part of it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None and s[END] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        if s[END] is None:
            out.append(0.0)
            continue
        duration = s[END] - s[START]
        out.append(duration - covered(s[START], s[END], children.get(i, ())))
    return out


def per_request(spans: Sequence[list], rids: Iterable) -> Dict[str, object]:
    """Aggregate the spans of the requests *rids*.

    Returns, per request, the self time of each layer and the inclusive
    time and call count of each span name.
    """
    wanted = set(rids)
    selfs = self_times(spans)
    layer_self: Dict[object, Dict[str, float]] = {r: defaultdict(float) for r in wanted}
    inclusive: Dict[object, Dict[str, float]] = {r: defaultdict(float) for r in wanted}
    calls: Dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        rid = s[RID]
        if rid not in wanted or s[END] is None:
            continue
        layer_self[rid][layer_of(s[NAME])] += selfs[i]
        calls[s[NAME]] += 1
        # Inclusive time counts only the outermost span of each name, so
        # recursion (an estimator falling back to another) is not doubled.
        parent = s[PARENT]
        nested = False
        while parent is not None:
            if spans[parent][NAME] == s[NAME]:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            inclusive[rid][s[NAME]] += s[END] - s[START]
    return {"self": layer_self, "inclusive": inclusive, "calls": calls}


def stitch(client: List[list], server: List[list], root_name: str) -> List[list]:
    """Append *server* spans under the client spans of the same request.

    Both processes read the same monotonic clock, so the intervals are
    comparable; each server span without a parent is re-parented to the
    client span named *root_name* that carries its request id.
    """
    by_rid = {
        s[RID]: i for i, s in enumerate(client)
        if s[NAME] == root_name and s[PARENT] is None
    }
    offset = len(client)
    merged = [list(s) for s in client]
    for s in server:
        parent = s[PARENT]
        if parent is None:
            parent = by_rid.get(s[RID])
        else:
            parent += offset
        merged.append([s[NAME], s[START], s[END], parent, s[RID]])
    return merged
