"""Integration tests: the full pipeline on medium-sized graphs."""

from __future__ import annotations

import pytest

from repro import RQTree, RQTreeEngine, load_dataset
from repro.eval.metrics import precision, recall
from repro.eval.workload import multi_source_workload, single_source_workload
from repro.reliability.montecarlo import mc_sampling_search
from repro.reliability.rht import rht_reliability_search


@pytest.fixture(scope="module")
def dblp_graph():
    return load_dataset("dblp5", n=400, seed=11)


@pytest.fixture(scope="module")
def dblp_engine(dblp_graph):
    return RQTreeEngine.build(dblp_graph, seed=11)


class TestEndToEndQuality:
    def test_lb_precision_is_perfect_against_proxy(self, dblp_graph, dblp_engine):
        queries = single_source_workload(dblp_graph, 10, seed=0)
        for i, s in enumerate(queries):
            proxy = mc_sampling_search(
                dblp_graph, s, 0.6, num_samples=800, seed=i
            )
            answer = dblp_engine.query(s, 0.6, method="lb").nodes
            # MC proxy noise can cost a fraction of a point; LB precision
            # must stay essentially perfect (paper reports 1.0).
            assert precision(answer, proxy.nodes) >= 0.95

    def test_mc_recall_is_high(self, dblp_graph, dblp_engine):
        queries = single_source_workload(dblp_graph, 6, seed=1)
        recalls = []
        for i, s in enumerate(queries):
            proxy = mc_sampling_search(
                dblp_graph, s, 0.6, num_samples=800, seed=100 + i
            )
            answer = dblp_engine.query(
                s, 0.6, method="mc", num_samples=800, seed=200 + i
            ).nodes
            recalls.append(recall(answer, proxy.nodes))
        assert sum(recalls) / len(recalls) >= 0.9

    def test_methods_agree_with_rht_on_small_graph(self):
        graph = load_dataset("lastfm", n=60, seed=5)
        engine = RQTreeEngine.build(graph, seed=5)
        source = next(u for u in graph.nodes() if graph.out_degree(u) > 1)
        proxy = mc_sampling_search(
            graph, source, 0.5, num_samples=2000, seed=0
        ).nodes
        rht = rht_reliability_search(
            graph, source, 0.5, budget=64, fallback_samples=100, seed=0
        ).nodes
        lb = engine.query(source, 0.5, method="lb").nodes
        # RHT should roughly match the proxy.
        assert recall(rht, proxy) >= 0.8
        # Every LB answer is a true positive up to proxy noise: check the
        # per-node MC estimate with a sampling margin rather than raw set
        # precision (nodes with reliability exactly at eta straddle the
        # proxy's threshold).
        from repro.reliability.montecarlo import mc_reliability

        for node in lb:
            estimate = mc_reliability(
                graph, source, node, num_samples=2000, seed=1
            )
            assert estimate >= 0.5 - 0.05

    def test_multi_source_pipeline(self, dblp_graph, dblp_engine):
        workloads = multi_source_workload(
            dblp_graph, 4, set_size=3, diameter=4, seed=2
        )
        for i, sources in enumerate(workloads):
            proxy = mc_sampling_search(
                dblp_graph, sources, 0.6, num_samples=600, seed=i
            )
            for mode in ("greedy", "exact"):
                answer = dblp_engine.query(
                    sources, 0.6, method="lb", multi_source_mode=mode
                ).nodes
                assert precision(answer, proxy.nodes) >= 0.95


class TestIndexPersistence:
    def test_save_load_preserves_answers(self, tmp_path, dblp_graph, dblp_engine):
        path = tmp_path / "index.json"
        dblp_engine.tree.save(path)
        restored = RQTree.load(path)
        engine2 = RQTreeEngine(dblp_graph, restored)
        for s in single_source_workload(dblp_graph, 5, seed=3):
            assert (
                dblp_engine.query(s, 0.6).nodes == engine2.query(s, 0.6).nodes
            )


class TestPruningBehaviour:
    def test_candidate_ratio_shrinks_with_eta(self, dblp_graph, dblp_engine):
        queries = single_source_workload(dblp_graph, 10, seed=4)
        def avg_ratio(eta):
            ratios = [
                len(dblp_engine.candidates(s, eta).candidates)
                / dblp_graph.num_nodes
                for s in queries
            ]
            return sum(ratios) / len(ratios)
        assert avg_ratio(0.8) <= avg_ratio(0.4) + 1e-9

    def test_subgraph_sizes_small_relative_to_graph(self, dblp_graph, dblp_engine):
        # The n-tilde of Table 1: boundary subgraphs of accepted clusters
        # should usually be far smaller than the graph.
        queries = single_source_workload(dblp_graph, 10, seed=5)
        sizes = [
            dblp_engine.candidates(s, 0.7).max_subgraph_nodes
            for s in queries
        ]
        assert sum(sizes) / len(sizes) < dblp_graph.num_nodes

    def test_flow_engines_give_same_answers(self, dblp_graph):
        engine_dinic = RQTreeEngine.build(dblp_graph, seed=3, flow_engine="dinic")
        engine_pr = RQTreeEngine(
            dblp_graph, engine_dinic.tree, flow_engine="push_relabel"
        )
        for s in single_source_workload(dblp_graph, 5, seed=6):
            assert (
                engine_dinic.query(s, 0.6).nodes == engine_pr.query(s, 0.6).nodes
            )
