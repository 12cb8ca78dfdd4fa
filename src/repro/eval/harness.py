"""Experiment harness: run method suites over workloads and aggregate.

The benchmark drivers in ``benchmarks/`` regenerate the paper's tables
by composing three things: a dataset, a workload, and this harness.  The
harness runs each query through the RQ-tree methods and the MC proxy,
scores precision/recall against the proxy, and aggregates the per-query
instrumentation (times, pruning ratios) into the row format the paper
prints.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..core.engine import QueryResult, RQTreeEngine
from ..eval.metrics import precision, recall
from ..graph.uncertain import UncertainGraph
from ..reliability.montecarlo import mc_sampling_search
from ..seeding import derive_seed

__all__ = ["QueryRecord", "AggregateRow", "run_quality_experiment", "mean_or_zero"]


@dataclass
class QueryRecord:
    """Everything measured for one (query, method) pair."""

    sources: List[int]
    eta: float
    method: str
    answer: Set[int]
    truth: Set[int]
    seconds: float
    precision: float
    recall: float
    candidate_precision: float = 0.0
    candidate_ratio: float = 0.0
    height_ratio: float = 0.0
    candidate_seconds: float = 0.0


@dataclass
class AggregateRow:
    """Mean metrics across a workload (one table cell group)."""

    method: str
    eta: float
    precision: float
    recall: float
    seconds: float
    candidate_precision: float = 0.0
    candidate_ratio: float = 0.0
    height_ratio: float = 0.0
    candidate_seconds: float = 0.0
    mc_seconds: float = 0.0


def mean_or_zero(values: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 for an empty sequence."""
    return statistics.fmean(values) if values else 0.0


def run_quality_experiment(
    engine: RQTreeEngine,
    workload: Sequence[Sequence[int]],
    eta: float,
    num_samples: int = 500,
    seed: int = 0,
    methods: Sequence[str] = ("lb", "mc"),
    multi_source_mode: str = "greedy",
) -> Dict[str, AggregateRow]:
    """Run the Table 6 protocol for one (dataset, eta) cell.

    For every query in *workload*: compute the MC-Sampling proxy answer
    on the full graph (timed — it doubles as the baseline runtime
    column), then each requested RQ-tree method, scoring against the
    proxy.  The filter's statistics (candidate precision and ratio,
    height ratio, candidate time) come from one timed
    :meth:`RQTreeEngine.candidates` call per query — ``lb`` runs no
    filter — and are the same in every method's row.  Returns one
    aggregate row per method plus the ``"mc-sampling"`` baseline row.
    """
    graph = engine.graph
    records: Dict[str, List[QueryRecord]] = {m: [] for m in methods}
    mc_times: List[float] = []
    for query_index, sources in enumerate(workload):
        source_list = list(sources)
        # Per-query seeds come from the documented SeedSequence scheme
        # (repro.seeding) — ad-hoc seed+i offsets would overlap between
        # nearby root seeds.
        query_seed = derive_seed(seed, "harness.query", query_index)
        proxy = mc_sampling_search(
            graph,
            source_list,
            eta,
            num_samples=num_samples,
            seed=query_seed,
        )
        mc_times.append(proxy.seconds)
        truth = proxy.nodes
        start = time.perf_counter()
        filtered = engine.candidates(source_list, eta, multi_source_mode)
        candidate_seconds = time.perf_counter() - start
        candidates = filtered.candidates
        for method in methods:
            result: QueryResult = engine.query(
                source_list,
                eta,
                method=method,
                num_samples=num_samples,
                seed=query_seed,
                multi_source_mode=multi_source_mode,
            )
            records[method].append(
                QueryRecord(
                    sources=source_list,
                    eta=eta,
                    method=method,
                    answer=result.nodes,
                    truth=truth,
                    seconds=result.total_seconds,
                    precision=precision(result.nodes, truth),
                    recall=recall(result.nodes, truth),
                    candidate_precision=precision(candidates, truth),
                    candidate_ratio=len(candidates) / graph.num_nodes,
                    height_ratio=filtered.height_ratio(engine.tree),
                    candidate_seconds=candidate_seconds,
                )
            )

    rows: Dict[str, AggregateRow] = {}
    for method, method_records in records.items():
        rows[method] = AggregateRow(
            method=method,
            eta=eta,
            precision=mean_or_zero([r.precision for r in method_records]),
            recall=mean_or_zero([r.recall for r in method_records]),
            seconds=mean_or_zero([r.seconds for r in method_records]),
            candidate_precision=mean_or_zero(
                [r.candidate_precision for r in method_records]
            ),
            candidate_ratio=mean_or_zero(
                [r.candidate_ratio for r in method_records]
            ),
            height_ratio=mean_or_zero(
                [r.height_ratio for r in method_records]
            ),
            candidate_seconds=mean_or_zero(
                [r.candidate_seconds for r in method_records]
            ),
            mc_seconds=mean_or_zero(mc_times),
        )
    rows["mc-sampling"] = AggregateRow(
        method="mc-sampling",
        eta=eta,
        precision=1.0,
        recall=1.0,
        seconds=mean_or_zero(mc_times),
        mc_seconds=mean_or_zero(mc_times),
    )
    return rows
