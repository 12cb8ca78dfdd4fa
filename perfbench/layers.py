"""The per-layer metric set and how a traced run fills it.

The names are a fixed contract: later changes are judged on them.
Times are per request means of inclusive span time unless the name says
otherwise; ``layer.<layer>.*`` are self times (span time minus the time
its child spans cover) per request, and ``.share`` is a layer's part of
the blocking path (its self time over the client-seen request time).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import common
import tracing

PICKS = ("lb", "lazy", "rss", "mc", "exact")

#: (name, unit, better)
NAMED: List[Tuple[str, str, str]] = [
    # Index build (mean per build of the set-up phase).
    ("graph.generate_s", "s", "lower"),
    ("core.builder.build_s", "s", "lower"),
    ("partition.bisect.calls", "count", "lower"),
    ("partition.coarsen_s", "s", "lower"),
    ("partition.initial_s", "s", "lower"),
    ("partition.refine_s", "s", "lower"),
    # Filter (per query).
    ("core.candidates.ms", "ms", "lower"),
    ("core.outreach.calls", "count", "lower"),
    ("core.outreach.ms", "ms", "lower"),
    ("flow.maxflow.calls", "count", "lower"),
    ("flow.maxflow.ms", "ms", "lower"),
    ("flow.network.arcs", "count", "lower"),
    ("core.bounds_cache.hit_rate", "ratio", "higher"),
    ("core.candidates.ratio", "ratio", "lower"),
    ("core.candidates.precision", "ratio", "higher"),
    # Verification (per query).
    ("graph.paths.dijkstra.ms", "ms", "lower"),
    ("estimators.planner.ms", "ms", "lower"),
    *[(f"estimators.pick.{p}", "ratio", "lower") for p in PICKS],
    ("estimators.estimate.ms", "ms", "lower"),
    ("accel.kernel.ms", "ms", "lower"),
    ("accel.worlds", "count", "lower"),
    ("accel.csr.builds", "count", "lower"),
    ("accel.csr.build.ms", "ms", "lower"),
    # Serving (per request).
    ("core.engine.query.ms", "ms", "lower"),
    ("core.engine.query.share", "ratio", "lower"),
    ("service.query.ms", "ms", "lower"),
    ("service.overhead.ms", "ms", "lower"),
    ("service.http.overhead.ms", "ms", "lower"),
    ("service.wire.ms", "ms", "lower"),
    ("service.cache.hit_rate", "ratio", "higher"),
    ("service.refused", "count", "lower"),
    # Update plane (per applied batch).
    ("live.apply.ms", "ms", "lower"),
    ("live.epochs", "count", "higher"),
    ("core.maintenance.repair.ms", "ms", "lower"),
    # Benchmark health: diagnostics, not gates.
    ("bench.driver.lag_ms", "ms", "lower"),
    ("bench.trace.overhead_pct", "%", "lower"),
    ("bench.host.calib_ms", "ms", "lower"),
]

LAYER_METRICS: List[Tuple[str, str, str]] = [
    (f"layer.{layer}.{stat}", unit, "lower")
    for layer in tracing.LAYERS
    for stat, unit in (("p50_ms", "ms"), ("p99_ms", "ms"), ("share", "ratio"))
]

PER_LAYER = NAMED + LAYER_METRICS
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _mean_inclusive(agg, rids, names) -> float:
    if not rids:
        return 0.0
    total = sum(agg["inclusive"][r].get(n, 0.0) for r in rids for n in names)
    return total * 1000.0 / len(rids)


def _layer_stats(agg, rids, root_seconds: float, out: Dict[str, float]) -> None:
    for layer in tracing.LAYERS:
        values = [agg["self"][r].get(layer, 0.0) * 1000.0 for r in rids]
        out[f"layer.{layer}.p50_ms"] = common.percentile(values, 50)
        out[f"layer.{layer}.p99_ms"] = common.percentile(values, 99)
        out[f"layer.{layer}.share"] = (
            sum(values) / 1000.0 / root_seconds if root_seconds > 0 else 0.0
        )


def build_metrics(spans, builds: int, out: Dict[str, float]) -> None:
    """Index-build metrics: mean per build over the set-up phase."""
    rids = [f"setup-{i}" for i in range(builds)]
    agg = tracing.per_request(spans, rids)
    per = lambda name: _mean_inclusive(agg, rids, [name]) / 1000.0  # noqa: E731
    out["graph.generate_s"] = per("graph.generate")
    out["core.builder.build_s"] = per("core.builder.build")
    out["partition.bisect.calls"] = agg["calls"].get("partition.bisect", 0) / builds
    out["partition.coarsen_s"] = per("partition.coarsen")
    out["partition.initial_s"] = per("partition.initial")
    out["partition.refine_s"] = per("partition.refine")


def update_metrics(spans, out: Dict[str, float]) -> None:
    applies = [s for s in spans if s[tracing.NAME] == "live.apply" and s[tracing.END]]
    repairs = [
        s for s in spans
        if s[tracing.NAME] == "core.maintenance.repair" and s[tracing.END]
    ]
    n = len(applies)
    out["live.epochs"] = float(n)
    out["live.apply.ms"] = (
        sum(s[tracing.END] - s[tracing.START] for s in applies) * 1000.0 / n if n else 0.0
    )
    out["core.maintenance.repair.ms"] = (
        sum(s[tracing.END] - s[tracing.START] for s in repairs) * 1000.0 / n if n else 0.0
    )


def filter_and_verify(agg, rids, counts, out: Dict[str, float]) -> None:
    n = len(rids) or 1
    out["core.candidates.ms"] = _mean_inclusive(agg, rids, ["core.candidates.generate"])
    out["core.outreach.calls"] = agg["calls"].get("core.outreach.bound", 0) / n
    out["core.outreach.ms"] = _mean_inclusive(agg, rids, ["core.outreach.bound"])
    out["flow.maxflow.calls"] = agg["calls"].get("flow.maxflow", 0) / n
    out["flow.maxflow.ms"] = _mean_inclusive(agg, rids, ["flow.maxflow"])
    out["flow.network.arcs"] = counts.get("flow.network.arcs", 0.0) / n
    lookups = counts.get("core.bounds_cache.lookups", 0.0)
    out["core.bounds_cache.hit_rate"] = (
        counts.get("core.bounds_cache.hits", 0.0) / lookups if lookups else 0.0
    )
    out["graph.paths.dijkstra.ms"] = _mean_inclusive(agg, rids, ["graph.paths.dijkstra"])
    out["estimators.planner.ms"] = _mean_inclusive(agg, rids, ["estimators.planner"])
    out["estimators.estimate.ms"] = _mean_inclusive(agg, rids, ["estimators.estimate"])
    out["accel.kernel.ms"] = _mean_inclusive(agg, rids, ["accel.kernel"])
    out["accel.worlds"] = counts.get("accel.worlds", 0.0) / n
    builds = agg["calls"].get("accel.csr.build", 0)
    out["accel.csr.builds"] = float(builds)
    out["accel.csr.build.ms"] = (
        _mean_inclusive(agg, rids, ["accel.csr.build"]) * n / builds if builds else 0.0
    )
    out["core.engine.query.ms"] = _mean_inclusive(agg, rids, ["core.engine.query"])


def answers(results: Sequence[dict], num_nodes: int, out: Dict[str, float]) -> None:
    """Candidate ratio/precision and estimator picks from the answers."""
    n = len(results) or 1
    candidates = sum(r["candidates"] for r in results)
    out["core.candidates.ratio"] = candidates / (n * num_nodes)
    out["core.candidates.precision"] = (
        sum(r["answers"] for r in results) / candidates if candidates else 0.0
    )
    for pick in PICKS:
        out[f"estimators.pick.{pick}"] = (
            sum(1 for r in results if r["estimator"] == pick) / n
        )


def empty() -> Dict[str, float]:
    return {name: 0.0 for name, _, _ in PER_LAYER}


def inproc_report(rec, outcomes, num_nodes, untraced_p50, traced_p50,
                  setup_runs, pass_counts) -> Dict[str, float]:
    spans = rec.export()
    out = empty()
    build_metrics(spans, setup_runs, out)
    rids = list(range(len(outcomes)))
    agg = tracing.per_request(spans, rids)
    root = sum(agg["inclusive"][r].get("bench.client.query", 0.0) for r in rids)
    filter_and_verify(agg, rids, pass_counts, out)
    engine_total = sum(agg["inclusive"][r].get("core.engine.query", 0.0) for r in rids)
    out["core.engine.query.share"] = engine_total / root if root else 0.0
    _layer_stats(agg, rids, root, out)
    answers(
        [
            {"candidates": r.candidates,
             "answers": len(r.nodes), "estimator": r.estimator}
            for *_, r in outcomes if not isinstance(r, Exception)
        ],
        num_nodes, out,
    )
    update_metrics(spans, out)
    out["bench.trace.overhead_pct"] = (
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0 if untraced_p50 else 0.0
    )
    return out


def http_report(spans, rids, query_rids, counts, results, num_nodes,
                setup_spans, setup_runs, lag_p99_ms, refused,
                untraced_p50, traced_p50) -> Dict[str, float]:
    out = empty()
    build_metrics(setup_spans, setup_runs, out)
    agg = tracing.per_request(spans, rids)
    root = sum(agg["inclusive"][r].get("bench.client.request", 0.0) for r in rids)
    filter_and_verify(agg, query_rids, counts, out)
    engine_total = sum(agg["inclusive"][r].get("core.engine.query", 0.0) for r in rids)
    out["core.engine.query.share"] = engine_total / root if root else 0.0
    _layer_stats(agg, rids, root, out)
    answers(results, num_nodes, out)
    n = len(query_rids) or 1
    service = [agg["inclusive"][r].get("service.server.query", 0.0) for r in query_rids]
    engine = [agg["inclusive"][r].get("core.engine.query", 0.0) for r in query_rids]
    client = [agg["inclusive"][r].get("bench.client.request", 0.0) for r in query_rids]
    out["service.query.ms"] = sum(service) * 1000.0 / n
    out["service.overhead.ms"] = (sum(service) - sum(engine)) * 1000.0 / n
    out["service.http.overhead.ms"] = (sum(client) - sum(service)) * 1000.0 / n
    out["service.wire.ms"] = sum(
        agg["self"][r].get("service.wire", 0.0) for r in rids
    ) * 1000.0 / (len(rids) or 1)
    out["service.cache.hit_rate"] = 1.0 - counts.get("service.engine_calls", 0.0) / n
    out["service.refused"] = float(refused)
    update_metrics(spans, out)
    out["bench.driver.lag_ms"] = lag_p99_ms
    out["bench.trace.overhead_pct"] = (
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0 if untraced_p50 else 0.0
    )
    return out
