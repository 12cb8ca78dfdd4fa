"""Quickstart: reliability search with the RQ-tree index.

Builds the paper's Figure 1 example graph plus a mid-sized synthetic
co-authorship network, constructs the RQ-tree index, and answers
reliability-search queries with both verification strategies, comparing
against the Monte-Carlo baseline.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro import RQTreeEngine, UncertainGraph, load_dataset, mc_sampling_search
from repro.graph.generators import figure1_graph


def paper_example() -> None:
    """Reproduce Example 1 / Example 2 of the paper end to end."""
    print("=== Paper run-through example (Figure 1) ===")
    graph, names = figure1_graph()
    engine = RQTreeEngine.build(graph, seed=0)

    result = engine.query(names["s"], eta=0.5, method="lb")
    answer = sorted(name for name, node in names.items() if node in result.nodes)
    print(f"RS({{s}}, 0.5) via RQ-tree-LB : {answer}   (paper: ['s', 'u', 'w'])")

    result = engine.query(names["s"], eta=0.5, method="mc", num_samples=2000, seed=1)
    answer = sorted(name for name, node in names.items() if node in result.nodes)
    print(f"RS({{s}}, 0.5) via RQ-tree-MC : {answer}")
    print()


def synthetic_network() -> None:
    """Index a 2000-node co-authorship network and time the methods."""
    print("=== Synthetic DBLP-like network (n = 2000) ===")
    graph = load_dataset("dblp5", n=2000, seed=0)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_arcs} arcs")

    start = time.perf_counter()
    engine = RQTreeEngine.build(graph, seed=0)
    print(
        f"index: built in {time.perf_counter() - start:.2f}s, "
        f"height {engine.tree.height}, {engine.tree.num_clusters} clusters"
    )

    source = next(u for u in graph.nodes() if graph.out_degree(u) >= 3)
    eta = 0.6

    result_lb = engine.query(source, eta, method="lb")
    print(
        f"RQ-tree-LB : {len(result_lb.nodes):4d} nodes in "
        f"{result_lb.total_seconds * 1000:8.2f} ms "
        "(one truncated Dijkstra, no filter)"
    )

    result_mc = engine.query(source, eta, method="mc", num_samples=500, seed=0)
    print(
        f"RQ-tree-MC : {len(result_mc.nodes):4d} nodes in "
        f"{result_mc.total_seconds * 1000:8.2f} ms"
    )

    baseline = mc_sampling_search(graph, source, eta, num_samples=500, seed=0)
    print(
        f"MC-Sampling: {len(baseline.nodes):4d} nodes in "
        f"{baseline.seconds * 1000:8.2f} ms  (whole-graph baseline)"
    )

    overlap = result_mc.nodes & baseline.nodes
    print(
        f"agreement RQ-tree-MC vs baseline: "
        f"{len(overlap)}/{len(baseline.nodes)} of baseline answers found"
    )
    print()


def multi_source() -> None:
    """Multiple-source queries: greedy heuristic vs exact DP."""
    print("=== Multiple-source query ===")
    graph = load_dataset("dblp5", n=2000, seed=0)
    engine = RQTreeEngine.build(graph, seed=0)
    sources = [10, 11, 900]

    answer = engine.query(sources, eta=0.6, method="lb").nodes
    print(f"RQ-tree-LB answer: {len(answer)} nodes")
    # The multi-source modes differ in candidate generation only, which
    # lb skips; compare them on the filter itself.
    for mode in ("greedy", "exact"):
        start = time.perf_counter()
        filtered = engine.candidates(sources, 0.6, multi_source_mode=mode)
        print(
            f"mode={mode:6s}: |candidates| = "
            f"{len(filtered.candidates):4d}, "
            f"time = {(time.perf_counter() - start) * 1000:.2f} ms"
        )


if __name__ == "__main__":
    paper_example()
    synthetic_network()
    multi_source()
