"""Table 7: multiple-source queries, varying |S| and query diameter d.

The paper runs RQ-tree-LB on DBLP (mu=5, eta=0.6) with source sets of
size 2-20 drawn from subgraphs of diameter 2-6.  Reproduced shapes:

* recall stays usable (paper: 0.75-0.86) and drifts down as |S| grows;
* candidate-generation precision falls as |S| and d grow (sources
  spread across clusters force larger candidate unions);
* height ratio rises with |S| and d (cursors must climb higher);
* RQ-tree-LB remains orders of magnitude faster than MC-Sampling.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.eval.metrics import precision, recall
from repro.eval.reporting import format_table
from repro.eval.workload import multi_source_workload
from repro.reliability.montecarlo import mc_sampling_search

from conftest import NUM_SAMPLES, write_result

SET_SIZES = (2, 5, 10, 20)
DIAMETERS = (2, 4, 6)
ETA = 0.6
QUERIES = 4


def _run(engines):
    graph, engine = engines("dblp5")
    results = {}
    for set_size in SET_SIZES:
        for d in DIAMETERS:
            workload = multi_source_workload(
                graph, QUERIES, set_size=set_size, diameter=d, seed=7
            )
            recalls, cg_precisions, height_ratios = [], [], []
            lb_times, mc_times = [], []
            for i, sources in enumerate(workload):
                start = time.perf_counter()
                proxy = mc_sampling_search(
                    graph, sources, ETA, num_samples=NUM_SAMPLES, seed=70 + i
                )
                mc_times.append(time.perf_counter() - start)

                result = engine.query(sources, ETA, method="lb")
                lb_times.append(result.total_seconds)
                recalls.append(recall(result.nodes, proxy.nodes))
                # The filter's own entry point: lb queries skip it.
                filtered = engine.candidates(sources, ETA)
                cg_precisions.append(
                    precision(filtered.candidates, proxy.nodes)
                )
                height_ratios.append(filtered.height_ratio(engine.tree))
            results[(set_size, d)] = (
                statistics.fmean(recalls),
                statistics.fmean(cg_precisions),
                statistics.fmean(height_ratios),
                statistics.fmean(lb_times),
                statistics.fmean(mc_times),
            )
    return results


def test_table7_report(engines, benchmark):
    results = benchmark.pedantic(lambda: _run(engines), rounds=1, iterations=1)
    rows = [
        (s, d, *results[(s, d)])
        for s in SET_SIZES
        for d in DIAMETERS
    ]
    write_result(
        "table7_multisource",
        format_table(
            ["|S|", "d", "recall", "cand-gen precision", "height ratio",
             "t(rq-lb) s", "t(MC) s"],
            rows,
            title=f"Table 7: multi-source RQ-tree-LB on dblp5-like "
            f"(eta={ETA}, {QUERIES} queries/cell)",
        ),
    )

    # Shape 1: RQ-tree-LB faster than MC everywhere.
    for key, (rec, cgp, hr, t_lb, t_mc) in results.items():
        assert t_lb < t_mc, key
        assert 0.0 <= hr <= 1.0

    # Shape 2: pruning degrades as the source set grows (height ratio
    # rises between the extremes, averaged over d).
    def mean_hr(set_size):
        return statistics.fmean(results[(set_size, d)][2] for d in DIAMETERS)

    assert mean_hr(20) >= mean_hr(2) - 0.05

    # Shape 3: candidate-generation precision degrades with |S|.
    def mean_cgp(set_size):
        return statistics.fmean(results[(set_size, d)][1] for d in DIAMETERS)

    assert mean_cgp(20) <= mean_cgp(2) + 0.1
