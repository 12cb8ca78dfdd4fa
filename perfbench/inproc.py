"""The two in-process workloads: ``gnp-lb`` and ``standin-auto``.

One client calls ``RQTreeEngine.query`` in a closed loop over a fixed,
seeded list of single-source queries, in ``PASSES`` rounds.  Each round
builds an engine (``setup_s``), runs one pass of the list on the first
engine, and sends ``STREAMS_PER_ROUND`` streams of seeded arc batches
through ``LiveRQTreeEngine`` over copies of that engine, checking one
``lb`` answer every few epochs (``update_p50_ms``).
"""

from __future__ import annotations

import copy
import gc
import math
import random
import time
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

import common
import layers
import tracing


@dataclass(frozen=True)
class Spec:
    name: str
    eta: float
    method: str
    num_samples: int
    #: Timed queries per second of ``--seconds``, over all passes (a
    #: fixed list, sized once from the run length, never from a timer).
    queries_per_second: float
    warmup: int
    #: Distinct timed sources (``None``: every timed query has its own).
    distinct_sources: Optional[int]
    latency_limit_ms: float
    reference_worlds: int
    f1_floor: float


#: Passes over the timed list per run.  Every timing metric is built
#: from each query's best pass (wall and CPU time alike): a stretch in
#: which a neighbour on the host slowed the process then does not set
#: the figure, as long as another pass of the same run was spared.
PASSES = 5
#: Seeded update batches per stream, arc ops per batch, and one checked
#: ``lb`` query after every ``UPDATE_CHECK_EVERY`` batches.
UPDATE_BATCHES = 96
UPDATE_SIZE = 4
UPDATE_CHECK_EVERY = 6
#: Update streams per round.  A stream lasts a fraction of a second, so
#: a batch's best over many streams spread over the run is needed to
#: hold its latency as steady as a query's.
STREAMS_PER_ROUND = 2
#: Queries per segment of the closed loop timed for ``throughput_qps``.
#: A whole pass is too long to escape the host's slow stretches: over
#: five seeds on a 2-vCPU VM, the best pass's rate spread 26% on
#: ``standin-auto``.
SEGMENT = 10

SPECS = {
    "gnp-lb": Spec(
        name="gnp-lb", eta=0.3, method="lb", num_samples=0,
        queries_per_second=30.0, warmup=20, distinct_sources=None,
        latency_limit_ms=250.0, reference_worlds=0, f1_floor=1.0,
    ),
    "standin-auto": Spec(
        name="standin-auto", eta=0.4, method="auto", num_samples=1000,
        queries_per_second=50.0, warmup=16, distinct_sources=128,
        latency_limit_ms=500.0, reference_worlds=8192, f1_floor=0.9,
    ),
}


def make_graph(workload: str):
    if workload == "gnp-lb":
        from repro.graph.generators import uncertain_gnp

        return uncertain_gnp(2000, 4 / 2000, seed=common.GRAPH_SEED)
    from repro.datasets import load_dataset

    return load_dataset("dblp2", n=2000, seed=common.GRAPH_SEED)


def query_list(spec: Spec, seed: int, num_nodes: int, seconds: int) -> Dict[str, list]:
    """The warm-up sources and the timed ``[source, sampling seed]`` list.

    Sources come from the workload's fixed pool (warm-up ones disjoint
    from timed ones); the seed sets their order and the sampling seeds.
    """
    timed = max(1, math.ceil(seconds * spec.queries_per_second / PASSES))
    distinct = min(spec.distinct_sources or timed, num_nodes - spec.warmup)
    pool = common.source_pool(num_nodes, spec.warmup + distinct, spec.name)
    sources = pool[spec.warmup:]
    rng = random.Random(common.derive(seed, spec.name + ":timed"))
    items = [
        [sources[i % distinct], rng.randrange(1 << 31)] for i in range(timed)
    ]
    rng.shuffle(items)
    return {"warmup": pool[:spec.warmup], "timed": items}


class Answer(NamedTuple):
    """What the checks need of one ``QueryResult``.  The result itself is
    dropped, so the benchmark's hold on earlier answers does not set
    ``peak_rss_mb``."""

    nodes: frozenset
    estimator: str
    degraded: bool
    candidates: int


def run_queries(engine, spec: Spec, items, rec: Optional[tracing.Recorder]):
    """The closed loop; returns per-query ``(wall s, CPU s, Answer or
    error)`` and the loop's clock at its start and after each query."""
    out = []
    marks = [time.perf_counter()]
    kwargs = {"method": spec.method}
    if spec.num_samples:
        kwargs["num_samples"] = spec.num_samples
    for i, (source, qseed) in enumerate(items):
        cpu, start = time.process_time(), time.perf_counter()
        try:
            if rec is not None:
                with rec.span("bench.client.query", rid=i):
                    result = engine.query([source], spec.eta, seed=qseed, **kwargs)
            else:
                result = engine.query([source], spec.eta, seed=qseed, **kwargs)
        except Exception as error:  # a failed operation, counted below
            result = error
        wall, used = time.perf_counter() - start, time.process_time() - cpu
        if not isinstance(result, Exception):
            result = Answer(
                frozenset(result.nodes), result.estimator, result.degraded,
                len(result.candidate_result.candidates),
            )
        out.append((wall, used, result))
        marks.append(time.perf_counter())
    return out, marks


def timed_pass(engine, spec, plan, rec=None):
    """One pass over the timed list from a fixed cache state: bounds
    cache cleared, then the untimed warm-up (disjoint sources).  With a
    recorder, the layer wrappers are in place for the timed list only.
    Returns what ``run_queries`` returns."""
    engine.bounds_cache.clear()
    for source in plan["warmup"]:
        engine.query([source], spec.eta, method=spec.method,
                     num_samples=spec.num_samples or 1000, seed=source)
    gc.collect()
    if rec is not None:
        rec.counts.clear()
        tracing.install_engine(rec)
    try:
        return run_queries(engine, spec, plan["timed"], rec)
    finally:
        if rec is not None:
            rec.uninstall()


class Checker:
    """Scores answers against references computed once per source."""

    def __init__(self, adj, spec: Spec, score: common.AnswerScore) -> None:
        self.adj, self.spec, self.score = adj, spec, score
        self.sampler = (
            common.WorldSampler(
                adj,
                common.CoinBank(spec.reference_worlds, common.derive(0, spec.name)),
            )
            if spec.reference_worlds else None
        )
        self.margin = (
            common.sampling_margin(spec.eta, spec.num_samples, spec.reference_worlds)
            if spec.reference_worlds else 0.0
        )
        self.freq_of: Dict[int, object] = {}
        self.exact_of: Dict[int, set] = {}

    def check(self, plan, outcomes):
        """Score every answer of one pass; returns per-query flags."""
        score, spec = self.score, self.spec
        flags = []
        for (source, _), (*_, result) in zip(plan["timed"], outcomes):
            if isinstance(result, Exception):
                score.fail(f"source {source}: {type(result).__name__}: {result}")
                flags.append(False)
                continue
            label = f"source {source} via {result.estimator}"
            if result.estimator == "lb":
                if source not in self.exact_of:
                    self.exact_of[source] = common.mlp_answer(
                        self.adj, [source], spec.eta
                    )
                flags.append(
                    score.exact(set(result.nodes), self.exact_of[source], label)
                )
            else:
                if source not in self.freq_of:
                    self.freq_of[source] = self.sampler.frequencies([source])
                flags.append(score.sampled(
                    set(result.nodes), self.freq_of[source], spec.eta,
                    self.margin, label,
                ))
        return flags


def update_phase(engine, spec, seed, adj, score, rec=None):
    """Seeded update batches through a live engine over a copy of
    *engine* (updates change the graph and the index in place), with a
    checked ``lb`` query after every few.  Returns the apply latencies
    in ms."""
    from repro import RQTreeEngine
    from repro.core.maintenance import DynamicRQTreeEngine
    from repro.live import LiveRQTreeEngine

    batches = common.update_batches(
        adj, UPDATE_BATCHES, UPDATE_SIZE, spec.name + ":updates"
    )
    rng = random.Random(common.derive(seed, spec.name + ":update-queries"))
    sources = [rng.randrange(len(adj)) for _ in batches]
    adj = [dict(a) for a in adj]
    live = LiveRQTreeEngine(DynamicRQTreeEngine.from_engine(
        RQTreeEngine(engine.graph.copy(), copy.deepcopy(engine.tree))
    ))
    gc.collect()
    latencies = []
    try:
        for i, (batch, source) in enumerate(zip(batches, sources)):
            rid = f"update-{i}"
            start = time.perf_counter()
            if rec is not None:
                with rec.span("bench.client.update", rid=rid):
                    epoch = live.apply(batch)
            else:
                epoch = live.apply(batch)
            latencies.append((time.perf_counter() - start) * 1000.0)
            common.apply_ops(adj, batch)
            if i % UPDATE_CHECK_EVERY:
                continue
            try:
                result = live.query([source], spec.eta, method="lb")
            except Exception as error:
                score.fail(f"epoch {epoch}: {type(error).__name__}: {error}")
                continue
            want = common.mlp_answer(adj, [source], spec.eta)
            if result.epoch != epoch:
                score.fail(f"answer epoch {result.epoch} != {epoch}")
                continue
            score.exact(set(result.nodes), want, f"epoch {epoch} source {source}")
    finally:
        live.close()
    return latencies


def best_of(passes, field: int):
    """Each query's best time (ms) over passes of the same list;
    ``field`` 0 is wall time, 1 is CPU time."""
    return [
        min(outcomes[i][field] for outcomes in passes) * 1000.0
        for i in range(len(passes[0]))
    ]


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    spec = SPECS[workload]
    rec = tracing.Recorder() if traced else None

    def build(i):
        if rec is not None:
            tracing.install_engine(rec)
        try:
            return common.build_engine(
                lambda: make_graph(workload), rec, f"setup-{i}"
            )
        finally:
            if rec is not None:
                rec.uninstall()

    engine, first = build(0)
    setup_times = [first]
    graph = engine.graph
    adj = common.adjacency_of(graph)
    plan = query_list(spec, seed, graph.num_nodes, seconds)
    score = common.AnswerScore()

    # Rounds of build, query pass and update streams, so the repeats of
    # each query, batch and build are spread over the whole run.  The
    # first engine answers every query pass and is copied for every
    # update stream; each later build is only timed.
    passes, pass_marks, streams = [], [], []
    for i in range(PASSES):
        if i:
            setup_times.append(build(i)[1])
        outcomes, marks = timed_pass(engine, spec, plan)
        passes.append(outcomes)
        pass_marks.append(marks)
        for _ in range(STREAMS_PER_ROUND):
            streams.append(update_phase(engine, spec, seed, adj, score))
    # ru_maxrss only grows: read it before the traced pass and the
    # reference checks add memory of the benchmark's own.
    peak_rss = common.peak_rss_mb()
    traced_outcomes = timed_pass(engine, spec, plan, rec)[0] if rec else None
    pass_counts = dict(rec.counts) if rec else None

    checker = Checker(adj, spec, score)
    flags = [checker.check(plan, outcomes) for outcomes in passes]
    if traced_outcomes is not None:
        checker.check(plan, traced_outcomes)
        tracing.install_engine(rec)
        update_phase(engine, spec, seed, adj, score, rec)
        rec.uninstall()

    best = best_of(passes, 0)
    best_cpu = best_of(passes, 1)
    update_best = [min(column) for column in zip(*streams)]
    ok = attempted = 0
    for outcomes, pass_flags in zip(passes, flags):
        for (t, _, result), good in zip(outcomes, pass_flags):
            attempted += 1
            if good and not result.degraded and t * 1000.0 <= spec.latency_limit_ms:
                ok += 1
    tail_ms, tail_q, tail_n = common.tail(best)
    n = len(best)
    f1 = score.f1
    correct = score.wrong == 0 and f1 >= spec.f1_floor
    picks: Dict[str, int] = {}
    for *_, result in passes[0]:
        if not isinstance(result, Exception):
            picks[result.estimator] = picks.get(result.estimator, 0) + 1
    pass_p50 = [
        common.median([t * 1000.0 for t, _, _ in outcomes]) for outcomes in passes
    ]

    metrics = {
        "setup_s": (min(setup_times), "s"),
        "query_p50_ms": (common.median(best), "ms"),
        "query_tail_ms": (tail_ms, "ms"),
        "throughput_qps": (
            common.closed_loop_qps(pass_marks, n, SEGMENT), "1/s"
        ),
        "cpu_ms_per_query": (sum(best_cpu) / n, "ms"),
        "slo_ok_rate": (ok / attempted, "ratio"),
        "answer_f1": (f1, "ratio"),
        "update_p50_ms": (common.median(update_best), "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    details = {
        "workload": workload,
        "timed_queries": n,
        "passes": PASSES,
        "setup_runs_s": setup_times,
        "pass_p50_ms": pass_p50,
        "pass_wall_s": [marks[-1] - marks[0] for marks in pass_marks],
        "stream_p50_ms": [common.median(stream) for stream in streams],
        "latency_quantiles_ms": common.quantile_map(best),
        "tail_percentile": tail_q,
        "tail_samples_beyond": tail_n,
        "latency_limit_ms": spec.latency_limit_ms,
        "f1_floor": spec.f1_floor,
        "estimator_picks": picks,
        "update_batches": len(update_best),
        "update_quantiles_ms": common.quantile_map(update_best),
        "wrong_examples": score.examples,
    }
    out = {
        "correct": correct,
        "attempted": score.checked + sum(len(stream) for stream in streams),
        "failed": score.wrong,
        "metrics": metrics,
        "details": details,
    }
    if rec is not None:
        out["layers"] = layers.inproc_report(
            rec, traced_outcomes, graph.num_nodes,
            untraced_p50=common.median(pass_p50),
            traced_p50=common.median([t * 1000.0 for t, _, _ in traced_outcomes]),
            setup_runs=PASSES,
            pass_counts=pass_counts,
        )
        out["spans"] = rec.export()
    return out
