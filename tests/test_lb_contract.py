"""The lb contract: ``method="lb"`` answers without the filter.

RQ-tree-LB's answer is ``{t : L_R(S, t) >= eta}`` whatever the
candidate set is: every prefix of a path above ``eta`` is itself above
``eta``, so all of that path's nodes are candidates (Section 5.1,
Theorem 4).  ``RQTreeEngine.query(method="lb")`` therefore runs one
truncated Dijkstra over the whole graph and no candidate generation.

The differential tests below compare it against the filter pipeline it
replaced — :func:`generate_candidates` followed by
:func:`verify_lower_bound_report` restricted to the candidates — on
random stand-in graphs, single- and multi-source, with and without a
hop budget, on a live engine after a seeded update stream, and through
the service behind the asyncio gateway.  The budget tests pin how a
budgeted lb query degrades.
"""

from __future__ import annotations

import copy
import functools
import http.client
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    CONFIRMED,
    UNVERIFIED,
    QueryBudget,
    RQTreeEngine,
    ServiceNotStartedError,
)
from repro.core.candidates import generate_candidates
from repro.core.maintenance import DynamicRQTreeEngine
from repro.core.verification import verify_lower_bound_report
from repro.datasets import load_dataset
from repro.graph.generators import uncertain_gnp
from repro.live import LiveRQTreeEngine
from repro.service import ReliabilityService
from repro.service.aio_gateway import AioGateway
from repro.service.metrics import MetricsRegistry, set_registry
from tests.test_live import _stream as update_stream

N = 240
KINDS = ("gnp", "nethept", "dblp2")

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.lru_cache(maxsize=None)
def engine_for(kind: str, seed: int) -> RQTreeEngine:
    if kind == "gnp":
        graph = uncertain_gnp(N, 4.0 / N, seed=seed)
    else:
        graph = load_dataset(kind, n=N, seed=seed)
    return RQTreeEngine.build(graph, seed=seed)


def filter_pipeline(graph, tree, sources, eta, max_hops=None):
    """The pre-shortcut lb answer: filter, then the restricted pass."""
    candidates = generate_candidates(graph, tree, sources, eta)
    return verify_lower_bound_report(
        graph, sources, eta, candidates.candidates, max_hops=max_hops
    ).kept


queries = st.fixed_dictionaries({
    "kind": st.sampled_from(KINDS),
    "seed": st.integers(0, 1),
    "sources": st.lists(
        st.integers(0, N - 1), min_size=1, max_size=3, unique=True
    ),
    "eta": st.floats(0.05, 0.95),
    "max_hops": st.one_of(st.none(), st.integers(1, 6)),
})


# ----------------------------------------------------------------------
# Differential: engine, live engine, service behind the aio gateway
# ----------------------------------------------------------------------
@SETTINGS
@given(query=queries)
def test_engine_lb_equals_filter_pipeline(query):
    engine = engine_for(query["kind"], query["seed"])
    result = engine.query(
        query["sources"], query["eta"], method="lb",
        max_hops=query["max_hops"],
    )
    assert result.nodes == filter_pipeline(
        engine.graph, engine.tree, query["sources"], query["eta"],
        query["max_hops"],
    )


@pytest.fixture(scope="module")
def live_engines():
    """Per graph kind, a live engine 20 seeded update batches in."""
    engines = {}
    for kind in KINDS:
        base = engine_for(kind, 0)
        live = LiveRQTreeEngine(
            DynamicRQTreeEngine.from_engine(
                RQTreeEngine(base.graph.copy(), copy.deepcopy(base.tree))
            )
        )
        ops = update_stream(base.graph, 240, seed=KINDS.index(kind))
        for start in range(0, len(ops), 12):
            live.apply(ops[start:start + 12])
        engines[kind] = live
    yield engines
    for live in engines.values():
        live.close()


@SETTINGS
@given(query=queries)
def test_live_lb_equals_filter_pipeline_after_updates(live_engines, query):
    live = live_engines[query["kind"]]
    result = live.query(
        query["sources"], query["eta"], method="lb",
        max_hops=query["max_hops"],
    )
    assert result.epoch == live.epoch == 20
    assert result.nodes == filter_pipeline(
        live.graph, live.tree, query["sources"], query["eta"],
        query["max_hops"],
    )


@pytest.fixture(scope="module")
def gateway():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    service = ReliabilityService(engine_for("nethept", 0), workers=1)
    try:
        with service, AioGateway(service, host="127.0.0.1", port=0) as srv:
            yield srv
    finally:
        set_registry(previous)


@SETTINGS
@given(query=queries)
def test_service_lb_equals_filter_pipeline(gateway, query):
    engine = engine_for("nethept", 0)
    host, port = gateway.address
    conn = http.client.HTTPConnection(host, port, timeout=60)
    body = {
        "sources": query["sources"], "eta": query["eta"], "method": "lb",
    }
    if query["max_hops"] is not None:
        body["max_hops"] = query["max_hops"]
    try:
        conn.request(
            "POST", "/query", body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        reply = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 200
    assert set(reply["nodes"]) == filter_pipeline(
        engine.graph, engine.tree, query["sources"], query["eta"],
        query["max_hops"],
    )


# ----------------------------------------------------------------------
# What an lb result holds
# ----------------------------------------------------------------------
def test_lb_result_runs_no_filter():
    engine = engine_for("dblp2", 0)
    result = engine.query([3, 17], 0.4, method="lb")
    candidate_result = result.candidate_result
    assert candidate_result.candidates == result.nodes
    assert candidate_result.clusters_visited == 0
    assert candidate_result.flow_calls == 0
    assert candidate_result.selected_clusters == []
    assert result.candidate_seconds == 0.0
    assert result.height_ratio == 0.0
    assert result.statuses == {node: CONFIRMED for node in result.nodes}
    assert result.estimator == "lb"
    assert not result.degraded
    assert "truncated Dijkstra" in result.explain()


def test_lb_rejects_an_unknown_multi_source_mode():
    engine = engine_for("gnp", 0)
    with pytest.raises(ValueError, match="multi_source_mode"):
        engine.query([0, 5], 0.3, method="lb", multi_source_mode="bogus")


def test_lb_records_no_filter_sample():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        engine_for("gnp", 0).query([0], 0.3, method="lb")
    finally:
        set_registry(previous)
    histograms = registry.snapshot()["histograms"]
    assert "engine.filter_seconds" not in histograms
    assert histograms["engine.verify_seconds"]["count"] == 1


# ----------------------------------------------------------------------
# Budgeted lb
# ----------------------------------------------------------------------
EXPIRED = QueryBudget(deadline_seconds=1e-9)


def test_expired_clock_confirms_only_the_sources():
    engine = engine_for("nethept", 1)
    result = engine.query([3, 42], 0.3, method="lb", budget=EXPIRED)
    assert result.degraded
    assert result.nodes == {3, 42}
    assert result.statuses == {3: CONFIRMED, 42: CONFIRMED}


def test_candidate_cap_keeps_exact_settled_nodes():
    engine = engine_for("gnp", 1)
    full = engine.query([5], 0.05, method="lb")
    assert len(full.nodes) > 6
    capped = engine.query(
        [5], 0.05, method="lb",
        budget=QueryBudget(max_candidate_nodes=6),
    )
    assert capped.degraded
    assert "cap" in capped.degraded_reason
    assert 1 <= len(capped.nodes) <= 6
    assert capped.nodes <= full.nodes
    # Settled values are final: every kept node carries its exact value,
    # and they are the most reliable nodes of the full answer.
    for node in capped.nodes:
        assert capped.estimates[node] == full.estimates[node]
    weakest_kept = min(full.estimates[node] for node in capped.nodes)
    assert all(
        full.estimates[node] <= weakest_kept
        for node in full.nodes - capped.nodes
    )
    assert capped.unverified
    assert capped.unverified.isdisjoint(capped.nodes)
    assert all(
        status in (CONFIRMED, UNVERIFIED)
        for status in capped.statuses.values()
    )


def test_candidate_cap_above_the_answer_is_not_degraded():
    engine = engine_for("gnp", 1)
    full = engine.query([5], 0.3, method="lb")
    capped = engine.query(
        [5], 0.3, method="lb",
        budget=QueryBudget(max_candidate_nodes=len(full.nodes)),
    )
    assert not capped.degraded
    assert capped.nodes == full.nodes


def test_20ms_deadline_returns_the_full_answer_at_n2000():
    """The filter alone took about 34 ms per query on this graph."""
    graph = uncertain_gnp(2000, 4.0 / 2000, seed=1)
    engine = RQTreeEngine.build(graph, seed=0)
    for source in (0, 500, 1000, 1500):
        full = engine.query([source], 0.3, method="lb")
        budgeted = engine.query(
            [source], 0.3, method="lb",
            budget=QueryBudget(deadline_seconds=0.02),
        )
        assert not budgeted.degraded
        assert budgeted.nodes == full.nodes


# ----------------------------------------------------------------------
# The blocking service call needs running workers
# ----------------------------------------------------------------------
def test_service_query_before_start_raises():
    service = ReliabilityService(engine_for("nethept", 0), workers=1)
    with pytest.raises(ServiceNotStartedError, match="start"):
        service.query([3], 0.3)
    # submit() still stages a request until the workers start.
    future = service.submit([3], 0.3)
    with service:
        assert 3 in future.result(timeout=60).nodes
    with pytest.raises(ServiceNotStartedError):
        service.query([3], 0.3)
