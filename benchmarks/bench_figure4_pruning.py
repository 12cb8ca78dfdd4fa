"""Figure 4: pruning power of the RQ-tree index.

Reproduces the four panels of Figure 4 — height ratio, candidate ratio,
candidate-generation precision, and candidate-generation time — on the
DBLP variants, Flickr, and BioMine.  Paper shapes:

* both ratios stay well below 1 and *decrease* as eta grows (better
  pruning at higher thresholds);
* candidate-generation precision improves with eta and with smaller
  arc probabilities (confirming the need for the verification phase);
* candidate-generation time falls as eta grows.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.eval.metrics import precision
from repro.eval.reporting import format_table
from repro.eval.workload import single_source_workload
from repro.reliability.montecarlo import mc_sampling_search

from conftest import NUM_QUERIES, NUM_SAMPLES, write_result

DATASETS = ("dblp2", "dblp5", "dblp10", "flickr", "biomine")
ETAS = (0.4, 0.6, 0.8)


def _run_all(engines):
    results = {}
    for name in DATASETS:
        graph, engine = engines(name)
        sources = single_source_workload(graph, NUM_QUERIES, seed=2)
        for eta in ETAS:
            height_ratios, candidate_ratios = [], []
            cg_precisions, cg_times = [], []
            for i, s in enumerate(sources):
                # The filter's own entry point: lb queries skip it.
                start = time.perf_counter()
                filtered = engine.candidates(s, eta)
                cg_times.append(time.perf_counter() - start)
                proxy = mc_sampling_search(
                    graph, s, eta, num_samples=NUM_SAMPLES, seed=40 + i
                )
                height_ratios.append(filtered.height_ratio(engine.tree))
                candidate_ratios.append(
                    len(filtered.candidates) / graph.num_nodes
                )
                cg_precisions.append(
                    precision(filtered.candidates, proxy.nodes)
                )
            results[(name, eta)] = (
                statistics.fmean(height_ratios),
                statistics.fmean(candidate_ratios),
                statistics.fmean(cg_precisions),
                statistics.fmean(cg_times),
            )
    return results


def test_figure4_report(engines, benchmark):
    results = benchmark.pedantic(
        lambda: _run_all(engines), rounds=1, iterations=1
    )
    rows = [
        (name, eta, *results[(name, eta)])
        for name in DATASETS
        for eta in ETAS
    ]
    write_result(
        "figure4_pruning",
        format_table(
            ["dataset", "eta", "height ratio", "candidate ratio",
             "cand-gen precision", "cand-gen time (s)"],
            rows,
            title="Figure 4: RQ-tree pruning power "
            f"({NUM_QUERIES} single-source queries/cell)",
        ),
    )

    for name in DATASETS:
        hr = {eta: results[(name, eta)][0] for eta in ETAS}
        cr = {eta: results[(name, eta)][1] for eta in ETAS}
        # Shape 1: ratios never exceed 1 and pruning improves (or at
        # least does not degrade) with eta.
        for eta in ETAS:
            assert 0.0 <= hr[eta] <= 1.0
            assert 0.0 <= cr[eta] <= 1.0
        assert hr[0.8] <= hr[0.4] + 0.05, name
        assert cr[0.8] <= cr[0.4] + 0.05, name

    # Shape 2: smaller arc probabilities (higher mu) -> better pruning.
    mean_cr = {
        name: statistics.fmean(results[(name, eta)][1] for eta in ETAS)
        for name in ("dblp2", "dblp10")
    }
    assert mean_cr["dblp10"] <= mean_cr["dblp2"] + 0.05
