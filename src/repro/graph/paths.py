"""Most-likely paths and probability-weighted shortest paths.

The verification lower bound of the paper (Section 5.1, Theorem 4) is the
probability of the *most-likely path* from the source set ``S`` to a target
``t``:

.. math::

    R(S, t) \\ge L_R(S, t) = \\prod_{a \\in P^*(S,t)} p(a),

where ``P*`` maximizes the product of arc probabilities over all paths
starting at any ``s in S``.  Maximizing a product of probabilities is the
same as minimizing the sum of ``-log p(a)`` weights, so the bound reduces
to a multi-source Dijkstra run (the paper's "simple variant of the standard
Dijkstra's algorithm where the distance vector is initialized with the set
of source nodes").
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import NodeNotFoundError
from .uncertain import UncertainGraph

__all__ = [
    "most_likely_path_probabilities",
    "hop_bounded_path_probabilities",
    "most_likely_path",
    "prob_to_distance",
    "distance_to_prob",
]


def prob_to_distance(p: float) -> float:
    """Map an arc probability to its additive Dijkstra weight ``-log p``."""
    if p >= 1.0:
        return 0.0
    return -math.log(p)


def distance_to_prob(distance: float) -> float:
    """Inverse of :func:`prob_to_distance`: ``exp(-distance)``."""
    if distance == math.inf:
        return 0.0
    return math.exp(-distance)


def most_likely_path_probabilities(
    graph: UncertainGraph,
    sources: Iterable[int],
    allowed: Optional[Set[int]] = None,
    min_probability: float = 0.0,
    max_settled: Optional[int] = None,
    frontier: Optional[Set[int]] = None,
) -> Dict[int, float]:
    """Most-likely-path probability from a source set to every node.

    Runs multi-source Dijkstra on ``-log p`` weights and returns a map
    ``t -> L_R(S, t)``.  Source nodes map to probability ``1.0`` (the empty
    path).  Nodes unreachable from the sources are omitted.

    Parameters
    ----------
    graph:
        The uncertain graph.
    sources:
        Non-empty set of source nodes.
    allowed:
        If given, paths are restricted to nodes inside this set
        (candidate-restricted verification, paper Section 5.1: paths
        through pruned nodes can be ignored because their probability is
        below the threshold anyway).
    min_probability:
        Early-exit cutoff: nodes whose best path probability falls below
        this value are not expanded or reported.  Passing the query
        threshold ``eta`` here prunes the search frontier exactly at the
        verification boundary.
    max_settled:
        Optional cap on the number of nodes the search settles.  Dijkstra
        settles nodes in order of decreasing probability and a settled
        value is final, so when the cap stops the search the returned
        map holds settled nodes only (at most *max_settled*), every
        value exact.
    frontier:
        Optional set that receives the nodes the search reached but
        left unsettled when *max_settled* stopped it (empty when the
        search ran to completion).
    """
    max_distance = (
        math.inf if min_probability <= 0.0 else -math.log(min_probability)
    )
    dist: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = []
    for s in sources:
        if s not in graph:
            raise NodeNotFoundError(s)
        if allowed is not None and s not in allowed:
            continue
        if dist.get(s, math.inf) > 0.0:
            dist[s] = 0.0
            heapq.heappush(heap, (0.0, s))
    remaining = math.inf if max_settled is None else max_settled
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        remaining -= 1
        if remaining < 0:
            # Cap reached.  The queue's minimum is d, so every node nearer
            # than d is settled and final; the rest (ties at d included)
            # are reported as tentative.
            final = {t: dt for t, dt in dist.items() if dt < d}
            if frontier is not None:
                frontier.update(t for t in dist if t not in final)
            dist = final
            break
        for v, p in graph.successors(u).items():
            if allowed is not None and v not in allowed:
                continue
            nd = d + prob_to_distance(p)
            if nd > max_distance:
                continue
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    # A tiny epsilon guard: exp(-(-log p)) can come back as p +/- 1 ulp;
    # clamping keeps the result a valid probability.
    return {t: min(1.0, distance_to_prob(d)) for t, d in dist.items()}


def hop_bounded_path_probabilities(
    graph: UncertainGraph,
    sources: Iterable[int],
    max_hops: int,
    allowed: Optional[Set[int]] = None,
    min_probability: float = 0.0,
) -> Dict[int, float]:
    """Most-likely-path probability using at most *max_hops* arcs.

    The hop-bounded analogue of
    :func:`most_likely_path_probabilities`, supporting
    distance-constrained reliability search (the query class of Jin et
    al. [20], which the RQ-tree engine exposes through its ``max_hops``
    parameter).  A hop budget breaks Dijkstra's greedy argument, so
    this runs a Bellman–Ford-style layered relaxation instead:
    ``best[k][v]`` is the largest path probability reaching ``v`` with
    at most ``k`` arcs, computed frontier-by-frontier in
    ``O(max_hops * m)``.

    Returns ``t -> L_R^h(S, t)``; sources map to 1.0, nodes not
    reachable within the budget (or below *min_probability*) are
    omitted.
    """
    if max_hops < 0:
        raise ValueError(f"max_hops must be non-negative, got {max_hops}")
    best: Dict[int, float] = {}
    frontier: Dict[int, float] = {}
    for s in sources:
        if s not in graph:
            raise NodeNotFoundError(s)
        if allowed is not None and s not in allowed:
            continue
        best[s] = 1.0
        frontier[s] = 1.0
    for _ in range(max_hops):
        next_frontier: Dict[int, float] = {}
        for u, prob_u in frontier.items():
            for v, p in graph.successors(u).items():
                if allowed is not None and v not in allowed:
                    continue
                candidate = prob_u * p
                if candidate < min_probability:
                    continue
                if candidate > best.get(v, 0.0):
                    best[v] = candidate
                    next_frontier[v] = candidate
        if not next_frontier:
            break
        frontier = next_frontier
    if min_probability > 0.0:
        return {t: pr for t, pr in best.items() if pr >= min_probability}
    return dict(best)


def most_likely_path(
    graph: UncertainGraph,
    sources: Iterable[int],
    target: int,
    allowed: Optional[Set[int]] = None,
    banned_arcs: Optional[Set[Tuple[int, int]]] = None,
) -> Tuple[float, List[int]]:
    """The most-likely path itself, as ``(probability, [nodes...])``.

    Returns ``(0.0, [])`` when the target is unreachable.  Used by the
    RHT baseline (path factoring), the edge-packing verifier (which
    passes *banned_arcs* to enforce arc-disjointness between successive
    paths), and diagnostics; the bulk verification hot path uses
    :func:`most_likely_path_probabilities` which avoids storing parents.
    """
    if target not in graph:
        raise NodeNotFoundError(target)
    source_set = set(sources)
    dist: Dict[int, float] = {}
    parent: Dict[int, Optional[int]] = {}
    heap: List[Tuple[float, int]] = []
    for s in source_set:
        if s not in graph:
            raise NodeNotFoundError(s)
        if allowed is not None and s not in allowed:
            continue
        dist[s] = 0.0
        parent[s] = None
        heapq.heappush(heap, (0.0, s))
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if u == target:
            break
        for v, p in graph.successors(u).items():
            if allowed is not None and v not in allowed:
                continue
            if banned_arcs is not None and (u, v) in banned_arcs:
                continue
            nd = d + prob_to_distance(p)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    if target not in dist:
        return 0.0, []
    path: List[int] = []
    node: Optional[int] = target
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()
    return min(1.0, distance_to_prob(dist[target])), path
