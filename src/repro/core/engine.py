"""The query engine facade: RQ-tree + filtering + verification.

:class:`RQTreeEngine` bundles an uncertain graph with its RQ-tree index
and exposes the paper's two query-evaluation strategies:

* ``method="lb"`` — **RQ-tree-LB**: the most-likely-path lower bound
  (perfect precision, no sampling; Section 5.1).  Its answer does not
  depend on the candidate set — every prefix of a path above ``eta`` is
  itself above ``eta`` — so the engine skips filtering and answers with
  one truncated Dijkstra over the whole graph
  (:func:`~repro.core.verification.lower_bound_answer`);
* ``method="mc"`` — **RQ-tree-MC**: candidate generation followed by
  Monte-Carlo verification on the candidate subgraph (better recall;
  Section 5.2).  The other estimators filter the same way.

Every query returns a :class:`QueryResult` carrying the answer set plus
the instrumentation the paper's evaluation reports: per-phase wall times,
the *height ratio* and *candidate ratio* pruning metrics of Section 7.4,
and the boundary-subgraph sizes of Table 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

from ..errors import EmptySourceSetError
from ..estimators import (
    AUTO,
    EstimateRequest,
    PlanDecision,
    PortfolioConfig,
    QueryPlanner,
    get_estimator,
    validate_method,
)
from ..graph.uncertain import UncertainGraph
from ..resilience.budget import UNVERIFIED, BudgetClock, QueryBudget
from .builder import BuildReport, build_rqtree
from .bounds_cache import ClusterBoundsCache
from .candidates import (
    CandidateResult,
    check_multi_source_mode,
    generate_candidates,
    height_ratio,
)
from .rqtree import RQTree
from .verification import lower_bound_answer

__all__ = ["QueryResult", "RQTreeEngine"]


@dataclass
class QueryResult:
    """Answer and instrumentation of one reliability-search query."""

    nodes: Set[int]
    eta: float
    sources: List[int]
    method: str
    candidate_result: CandidateResult
    candidate_seconds: float
    verification_seconds: float
    tree_height: int
    num_graph_nodes: int

    @property
    def total_seconds(self) -> float:
        """End-to-end query time (candidate generation + verification)."""
        return self.candidate_seconds + self.verification_seconds

    #: Depth (distance from the root) of the shallowest cluster selected
    #: by candidate generation; 0 means some cursor climbed to the root
    #: (or, with no cluster selected, that no filter ran).
    min_selected_depth: int = 0

    #: Per-candidate verification statuses (``confirmed`` / ``rejected``
    #: / ``unverified-candidate``).  ``nodes`` is exactly the confirmed
    #: set; unverified entries appear only in budgeted queries.
    statuses: Dict[int, str] = field(default_factory=dict)

    #: True when a query budget forced a partial answer: the deadline
    #: expired (candidate generation fell back to the root, or
    #: verification left candidates undecided) or the candidate-subgraph
    #: cap left candidates unscreened.  The answer set is still sound —
    #: every confirmed node satisfies the query at the budget's
    #: confidence — it may just be incomplete.
    degraded: bool = False
    degraded_reason: Optional[str] = None

    #: Worlds actually sampled by MC verification (0 for "lb"/"lb+").
    worlds_used: int = 0

    #: Fraction of candidates that received a definitive verdict
    #: (1.0 for unbudgeted queries).
    achieved_confidence: float = 1.0

    #: Numpy-kernel batches retried on the Python reference path after a
    #: kernel failure (see the fallback ladder in :mod:`repro.accel`).
    backend_fallbacks: int = 0

    #: Shards whose answer for *this query* arrived only after the
    #: supervisor respawned the worker holding it (sharded engine with
    #: supervision only; see :mod:`repro.shard.supervisor`).  Non-zero
    #: means the query survived a worker crash without degrading.
    shards_recovered: int = 0

    #: The estimator that actually verified the batch.  Equals
    #: ``method`` for explicit methods unless the estimator fell back
    #: (e.g. ``exact`` past its treewidth cap runs seeded ``mc``);
    #: for ``method="auto"`` it is the planner's choice.
    estimator: str = ""

    #: Why this estimator ran: the planner's decision rationale for
    #: ``auto``, an "explicit method" note otherwise, with any fallback
    #: annotation appended.
    planner_reason: Optional[str] = None

    #: Per-node reliability estimates / bounds where the estimator
    #: produces them (frequencies for samplers, path bounds for lb,
    #: exact values for exact); empty otherwise.
    estimates: Dict[int, float] = field(default_factory=dict)

    #: Graph epoch this query was answered against (the live update
    #: plane's published-generation counter; 0 for a frozen graph).
    #: Under :mod:`repro.live` a query is admitted at one epoch and
    #: served against exactly that epoch's snapshot — this field is the
    #: proof, and the ``quality`` wire block surfaces it.
    epoch: int = 0

    @property
    def unverified(self) -> Set[int]:
        """Candidates the budget ran out on (empty when not degraded)."""
        return {n for n, s in self.statuses.items() if s == UNVERIFIED}

    @property
    def height_ratio(self) -> float:
        """How far up the tree candidate generation had to climb.

        The paper's Section 7.4 metric: the number of tree levels
        traversed over the total height.  A query whose qualifying
        cluster sits just above the leaves scores near ``1/height``;
        one that climbed to the root scores 1.  For multi-source
        queries the *highest* cursor defines the ratio (the paper's
        Table 7 values rise towards 1 as source sets spread).  0.0 when
        no cluster was selected (``lb``, which runs no filter).
        """
        if not self.candidate_result.selected_clusters:
            return 0.0
        return height_ratio(self.tree_height, self.min_selected_depth)

    def explain(self) -> str:
        """A human-readable account of how this query was answered.

        Shows the candidate-generation traversal (clusters visited,
        the bound at each, how it was computed, where it stopped) and
        the verification outcome — the query-plan view of the paper's
        two-phase pipeline.
        """
        if self.method == "lb" and not self.candidate_result.clusters_visited:
            filtering = (
                "candidate generation: skipped (lb answers by one truncated "
                "Dijkstra over the whole graph, cut off at eta; every prefix "
                "of a path above eta is above eta, so no filter is needed)"
            )
            verified = f"truncated Dijkstra kept {len(self.nodes)} node(s)"
        else:
            filtering = self.candidate_result.explain()
            verified = (
                f"kept {len(self.nodes)} of "
                f"{len(self.candidate_result.candidates)} candidates"
            )
        lines = [
            f"RS(S={sorted(self.sources)}, eta={self.eta}) "
            f"via rq-tree-{self.method}",
            filtering,
            f"verification [{self.method}]: {verified} "
            f"in {self.verification_seconds * 1000:.2f} ms",
        ]
        if self.degraded:
            lines.append(
                f"DEGRADED: {self.degraded_reason or 'budget exhausted'} "
                f"({len(self.unverified)} unverified candidate(s), "
                f"achieved confidence {self.achieved_confidence:.0%})"
            )
        return "\n".join(lines)

    @property
    def candidate_ratio(self) -> float:
        """Candidate-set size over graph size (paper, Section 7.4)."""
        if self.num_graph_nodes == 0:
            return 0.0
        return len(self.candidate_result.candidates) / self.num_graph_nodes


class RQTreeEngine:
    """Reliability-search query engine backed by an RQ-tree index.

    Build an engine either from a pre-built tree or directly from a
    graph (the index is constructed on the spot)::

        engine = RQTreeEngine.build(graph, seed=7)
        result = engine.query([source], eta=0.6)          # RQ-tree-LB
        result = engine.query([source], eta=0.6, method="mc")
    """

    def __init__(
        self,
        graph: UncertainGraph,
        tree: RQTree,
        build_report: Optional[BuildReport] = None,
        flow_engine: str = "dinic",
        planner_config: Optional[PortfolioConfig] = None,
    ) -> None:
        if tree.num_graph_nodes != graph.num_nodes:
            raise ValueError(
                "index and graph disagree on the number of nodes: "
                f"{tree.num_graph_nodes} vs {graph.num_nodes}"
            )
        self.graph = graph
        self.tree = tree
        self.build_report = build_report
        self.flow_engine = flow_engine
        # Source-independent Theorem-5 bounds, shared across queries.
        # Callers that mutate the graph must invalidate it (the dynamic
        # engine does so automatically).
        self.bounds_cache = ClusterBoundsCache()
        #: Cost-based estimator selection for ``method="auto"``; its
        #: config also caps the exact estimator for explicit
        #: ``method="exact"`` queries.
        self.planner = QueryPlanner(planner_config)

    @classmethod
    def build(
        cls,
        graph: UncertainGraph,
        max_imbalance: float = 0.1,
        seed: int = 0,
        strategy: str = "multilevel",
        flow_engine: str = "dinic",
        planner_config: Optional[PortfolioConfig] = None,
    ) -> "RQTreeEngine":
        """Construct the RQ-tree index for *graph* and wrap it."""
        tree, report = build_rqtree(
            graph, max_imbalance=max_imbalance, seed=seed, strategy=strategy
        )
        return cls(
            graph,
            tree,
            build_report=report,
            flow_engine=flow_engine,
            planner_config=planner_config,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def candidates(
        self,
        sources: Union[int, Sequence[int]],
        eta: float,
        multi_source_mode: str = "greedy",
        budget: Optional[Union[QueryBudget, BudgetClock]] = None,
    ) -> CandidateResult:
        """Run candidate generation only (the filtering phase).

        The entry point for the filter's own statistics (candidate and
        height ratios, boundary-subgraph sizes, traversal trace):
        ``method="lb"`` queries run no filter.
        """
        source_list = self._normalize_sources(sources)
        return generate_candidates(
            self.graph,
            self.tree,
            source_list,
            eta,
            engine=self.flow_engine,
            multi_source_mode=multi_source_mode,
            bounds_cache=self.bounds_cache,
            budget=budget,
        )

    def query(
        self,
        sources: Union[int, Sequence[int]],
        eta: float,
        method: str = "lb",
        num_samples: int = 1000,
        seed: Optional[int] = None,
        multi_source_mode: str = "greedy",
        max_hops: Optional[int] = None,
        backend: str = "auto",
        budget: Optional[QueryBudget] = None,
        coin_source=None,
    ) -> QueryResult:
        """Answer the reliability-search query ``RS(S, eta)``.

        Parameters
        ----------
        sources:
            A node id or a sequence of node ids.
        eta:
            Probability threshold in (0, 1).
        method:
            Any estimator in :func:`repro.estimators.available_methods`:
            ``"lb"`` (RQ-tree-LB, perfect precision; answered by one
            truncated Dijkstra without filtering), ``"lb+"`` (edge
            packing: perfect precision, better recall; hop budgets
            unsupported), ``"mc"`` (chunked Monte-Carlo), ``"rss"``
            (recursive stratified sampling), ``"lazy"`` (lazy
            BFS-sharing batch sampling), ``"exact"`` (treewidth-gated
            exact answers, deterministic sampling fallback past the
            cap), or ``"auto"`` — the cost-based
            :class:`~repro.estimators.QueryPlanner` picks per batch.
        num_samples:
            Worlds sampled by the sampling estimators (ignored for
            ``"lb"``/``"lb+"``/``"exact"``).
        seed:
            Seed for the sampling estimators (ignored for ``"lb"``).
        multi_source_mode:
            ``"greedy"`` (Section 4.3 heuristic) or ``"exact"``
            (Problem 2 Pareto DP); ignored for single-source queries and
            for ``"lb"``.
        max_hops:
            Optional hop budget: answer the *distance-constrained*
            reliability-search query (only nodes within ``max_hops``
            arcs with probability >= eta count; Jin et al. [20]).  The
            unconstrained candidate set remains valid because hop
            bounds only shrink reachability events, so no new candidate
            machinery is needed — only verification changes.
        backend:
            Sampling backend for the MC verifier
            (``"auto"``/``"python"``/``"numpy"``; see
            :mod:`repro.accel`).  Ignored for ``"lb"``/``"lb+"``,
            which never sample.
        budget:
            Optional :class:`~repro.resilience.QueryBudget` bounding the
            whole query (wall-clock deadline spanning filtering *and*
            verification, world cap, candidate-subgraph cap).  A
            budgeted query never raises on expiry: it returns a partial
            :class:`QueryResult` with ``degraded=True`` and a per-node
            status for every candidate.  ``budget=None`` reproduces the
            unbudgeted (seed) behaviour exactly.
        coin_source:
            Optional :class:`repro.accel.coins.CoinBlock` supplying the
            MC verifier's packed arc coins from a shared, replayable
            stream (the serving layer's cross-query world batching).
            Never changes the answer: the block's bits are exactly what
            a private draw at *seed* would produce.  Ignored for
            non-sampling methods and on the pure-python path.
        """
        source_list = self._normalize_sources(sources)
        validate_method(method, max_hops=max_hops)
        clock = budget.start() if budget is not None else None
        if method == "lb":
            # lb runs no filter, but a bad strategy is still misuse.
            if len(source_list) > 1:
                check_multi_source_mode(multi_source_mode)
            return self._lower_bound_query(source_list, eta, max_hops, clock)
        start = time.perf_counter()
        candidate_result = generate_candidates(
            self.graph,
            self.tree,
            source_list,
            eta,
            engine=self.flow_engine,
            multi_source_mode=multi_source_mode,
            bounds_cache=self.bounds_cache,
            budget=clock,
        )
        candidate_seconds = time.perf_counter() - start

        start = time.perf_counter()
        request = EstimateRequest(
            graph=self.graph,
            sources=source_list,
            eta=eta,
            candidates=candidate_result.candidates,
            num_samples=num_samples,
            seed=seed,
            max_hops=max_hops,
            backend=backend,
            clock=clock,
            coin_source=coin_source,
            config=self.planner.config,
        )
        if method == AUTO:
            decision = self.planner.plan(request)
        else:
            decision = PlanDecision(
                estimator=method, reason=f"explicit method {method!r}"
            )
        report = get_estimator(decision.estimator).estimate(request)
        verification_seconds = time.perf_counter() - start
        if method == AUTO:
            self.planner.record_outcome(decision, verification_seconds)
        estimator_used = report.estimator or decision.estimator
        planner_reason = (
            f"{decision.reason}; {report.notes}"
            if report.notes
            else decision.reason
        )

        min_depth = min(
            (
                self.tree.clusters[index].depth
                for index in candidate_result.selected_clusters
            ),
            default=0,
        )
        degraded = candidate_result.degraded or report.degraded
        degraded_reason = candidate_result.degraded_reason or report.degraded_reason
        self._record_query_metrics(
            method,
            estimator_used,
            candidate_seconds,
            verification_seconds,
            degraded,
        )
        return QueryResult(
            nodes=report.kept,
            eta=eta,
            sources=source_list,
            method=method,
            candidate_result=candidate_result,
            candidate_seconds=candidate_seconds,
            verification_seconds=verification_seconds,
            tree_height=self.tree.height,
            num_graph_nodes=self.graph.num_nodes,
            min_selected_depth=min_depth,
            statuses=report.statuses,
            degraded=degraded,
            degraded_reason=degraded_reason,
            worlds_used=report.worlds_used,
            achieved_confidence=report.achieved_confidence,
            backend_fallbacks=report.backend_fallbacks,
            estimator=estimator_used,
            planner_reason=planner_reason,
            estimates=report.estimates,
            epoch=self.graph.epoch,
        )

    def _lower_bound_query(
        self,
        source_list: List[int],
        eta: float,
        max_hops: Optional[int],
        clock: Optional[BudgetClock],
    ) -> QueryResult:
        """RQ-tree-LB without the filter: one truncated Dijkstra.

        The candidate set reported is what the Dijkstra reached above
        ``eta`` (the kept nodes, plus any a candidate-node cap left
        unverified); no cluster is visited and no flow is solved.
        """
        start = time.perf_counter()
        report = lower_bound_answer(
            self.graph, source_list, eta, max_hops=max_hops, budget=clock
        )
        verification_seconds = time.perf_counter() - start
        self._record_query_metrics(
            "lb", "lb", None, verification_seconds, report.degraded
        )
        return QueryResult(
            nodes=report.kept,
            eta=eta,
            sources=source_list,
            method="lb",
            candidate_result=CandidateResult(
                candidates=set(report.statuses),
                clusters_visited=0,
                flow_calls=0,
                final_upper_bound=0.0,
            ),
            candidate_seconds=0.0,
            verification_seconds=verification_seconds,
            tree_height=self.tree.height,
            num_graph_nodes=self.graph.num_nodes,
            statuses=report.statuses,
            degraded=report.degraded,
            degraded_reason=report.degraded_reason,
            estimator="lb",
            planner_reason="explicit method 'lb'",
            estimates=report.estimates,
            epoch=self.graph.epoch,
        )

    @staticmethod
    def _record_query_metrics(
        method: str,
        estimator_used: str,
        candidate_seconds: Optional[float],
        verification_seconds: float,
        degraded: bool,
    ) -> None:
        """Per-stage timers and query counters for the serving layer
        (no filter sample when no filter ran)."""
        from ..service.metrics import get_registry

        registry = get_registry()
        registry.counter("engine.queries").inc()
        registry.counter(f"engine.queries.{method}").inc()
        if degraded:
            registry.counter("engine.degraded").inc()
        if candidate_seconds is not None:
            registry.histogram("engine.filter_seconds").observe(
                candidate_seconds
            )
        registry.histogram("engine.verify_seconds").observe(
            verification_seconds
        )
        # Per-estimator latency: keyed by what actually ran, so a
        # treewidth-cap fallback shows up under "mc", not "exact".
        registry.histogram(f"estimator.{estimator_used}.seconds").observe(
            verification_seconds
        )

    @staticmethod
    def _normalize_sources(sources: Union[int, Sequence[int]]) -> List[int]:
        if isinstance(sources, int):
            return [sources]
        source_list = list(dict.fromkeys(sources))
        if not source_list:
            raise EmptySourceSetError()
        return source_list
