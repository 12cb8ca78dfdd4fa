"""Unit and integration tests for the RQTreeEngine facade."""

from __future__ import annotations

import pytest

from repro import RQTree, RQTreeEngine, UncertainGraph, build_rqtree
from repro.errors import EmptySourceSetError
from repro.graph.exact import exact_reliability_search
from repro.graph.generators import uncertain_gnp


class TestConstruction:
    def test_build_classmethod(self, fig1_graph):
        engine = RQTreeEngine.build(fig1_graph, seed=0)
        assert engine.build_report is not None
        assert engine.tree.num_graph_nodes == fig1_graph.num_nodes

    def test_mismatched_tree_rejected(self, fig1_graph):
        tree, _ = build_rqtree(UncertainGraph(3))
        with pytest.raises(ValueError):
            RQTreeEngine(fig1_graph, tree)

    def test_wrap_prebuilt_tree(self, fig1_graph):
        tree, report = build_rqtree(fig1_graph, seed=0)
        engine = RQTreeEngine(fig1_graph, tree, build_report=report)
        result = engine.query(0, 0.5)
        assert 0 in result.nodes


class TestQueryCorrectness:
    def test_figure1_lb_answer(self, fig1_graph, fig1_names):
        engine = RQTreeEngine.build(fig1_graph, seed=1)
        result = engine.query(fig1_names["s"], 0.5, method="lb")
        # LB keeps s, w (direct 0.6) and u (path s->u 0.5 >= 0.5).
        assert result.nodes == {
            fig1_names["s"],
            fig1_names["w"],
            fig1_names["u"],
        }

    def test_figure1_mc_matches_exact(self, fig1_graph, fig1_names):
        engine = RQTreeEngine.build(fig1_graph, seed=1)
        result = engine.query(
            fig1_names["s"], 0.5, method="mc", num_samples=4000, seed=2
        )
        expected = exact_reliability_search(fig1_graph, [fig1_names["s"]], 0.5)
        assert result.nodes == expected

    def test_lb_has_no_false_positives(self):
        for seed in range(5):
            g = uncertain_gnp(7, 0.25, seed=seed)
            if g.num_arcs > 16 or g.num_arcs == 0:
                continue
            engine = RQTreeEngine.build(g, seed=seed)
            for eta in (0.3, 0.6):
                truth = exact_reliability_search(g, [0], eta)
                answer = engine.query(0, eta, method="lb").nodes
                assert answer <= truth

    def test_mc_answer_subset_of_candidates(self, medium_engine):
        result = medium_engine.query(0, 0.5, method="mc", num_samples=200, seed=0)
        assert result.nodes <= result.candidate_result.candidates

    def test_multi_source_query(self, medium_engine):
        result = medium_engine.query([0, 100, 200], 0.6, method="lb")
        assert {0, 100, 200} <= result.nodes

    def test_multi_source_exact_mode(self, medium_engine):
        result = medium_engine.query(
            [0, 100], 0.6, method="lb", multi_source_mode="exact"
        )
        assert {0, 100} <= result.nodes

    def test_int_source_normalized(self, medium_engine):
        a = medium_engine.query(5, 0.6)
        b = medium_engine.query([5], 0.6)
        assert a.nodes == b.nodes

    def test_unknown_method_rejected(self, medium_engine):
        with pytest.raises(ValueError):
            medium_engine.query(0, 0.5, method="quantum")

    def test_empty_sources_rejected(self, medium_engine):
        with pytest.raises(EmptySourceSetError):
            medium_engine.query([], 0.5)


class TestQueryStatistics:
    def test_timing_fields(self, medium_engine):
        result = medium_engine.query(0, 0.6)
        assert result.candidate_seconds >= 0.0
        assert result.verification_seconds >= 0.0
        assert result.total_seconds == pytest.approx(
            result.candidate_seconds + result.verification_seconds
        )

    def test_ratio_ranges(self, medium_engine):
        result = medium_engine.query(
            0, 0.6, method="mc", num_samples=50, seed=0
        )
        assert 0.0 <= result.height_ratio <= 1.0
        assert 0.0 < result.candidate_ratio <= 1.0

    def test_candidate_ratio_definition(self, medium_engine):
        result = medium_engine.query(
            0, 0.6, method="mc", num_samples=50, seed=0
        )
        expected = len(result.candidate_result.candidates) / 300
        assert result.candidate_ratio == pytest.approx(expected)

    def test_lb_deterministic(self, medium_engine):
        a = medium_engine.query(9, 0.6, method="lb")
        b = medium_engine.query(9, 0.6, method="lb")
        assert a.nodes == b.nodes

    def test_mc_deterministic_given_seed(self, medium_engine):
        a = medium_engine.query(9, 0.6, method="mc", num_samples=100, seed=4)
        b = medium_engine.query(9, 0.6, method="mc", num_samples=100, seed=4)
        assert a.nodes == b.nodes


class TestCandidatesShortcut:
    def test_candidates_matches_query_phase(self, medium_engine):
        direct = medium_engine.candidates(3, 0.6)
        via_query = medium_engine.query(
            3, 0.6, method="mc", num_samples=50, seed=0
        ).candidate_result
        assert direct.candidates == via_query.candidates

    def test_multi_source_candidates(self, medium_engine):
        result = medium_engine.candidates([3, 200], 0.6)
        assert {3, 200} <= result.candidates
