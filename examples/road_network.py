"""Road-network scenario: probabilistic reachability under traffic jams.

The paper's road-network motivation (Section 1, citing Hua & Pei): road
segments fail unpredictably (jams, closures), so each segment carries a
probability of being traversable, and the question "which destinations
are reachable from my possible starting points with high probability?"
is a multiple-source reliability-search query.

This example builds a city-like grid road network with jam-prone arteries
and reliable side streets, indexes it, and finds the reliably reachable
destinations from a set of alternative depot locations.

Run:  python examples/road_network.py
"""

from __future__ import annotations

import random

from repro import RQTreeEngine, UncertainGraph, mc_sampling_search


def build_road_network(rows: int = 24, cols: int = 24, seed: int = 0):
    """A grid city: arteries are fast but jam-prone, side streets reliable.

    Every intersection connects to its 4 neighbours both ways.  Arcs on
    artery rows/columns (every 6th line) carry lower traversal
    probability (jams); side streets are dependable.
    """
    rng = random.Random(seed)
    graph = UncertainGraph(rows * cols)

    def node(r: int, c: int) -> int:
        return r * cols + c

    def probability(r1, c1, r2, c2) -> float:
        on_artery = (r1 % 6 == 0 and r2 % 6 == 0) or (
            c1 % 6 == 0 and c2 % 6 == 0
        )
        if on_artery:
            return rng.uniform(0.45, 0.7)   # jam-prone
        return rng.uniform(0.8, 0.98)       # side street

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                graph.add_arc(node(r, c), node(r, c + 1), probability(r, c, r, c + 1))
                graph.add_arc(node(r, c + 1), node(r, c), probability(r, c + 1, r, c))
            if r + 1 < rows:
                graph.add_arc(node(r, c), node(r + 1, c), probability(r, c, r + 1, c))
                graph.add_arc(node(r + 1, c), node(r, c), probability(r + 1, c, r, c))
    return graph, rows, cols


def main() -> None:
    graph, rows, cols = build_road_network()
    print(
        f"road network: {rows}x{cols} grid, {graph.num_nodes} intersections, "
        f"{graph.num_arcs} directed segments"
    )

    engine = RQTreeEngine.build(graph, seed=0)
    print(
        f"RQ-tree: height {engine.tree.height}, "
        f"{engine.tree.num_clusters} clusters"
    )

    # Three alternative depot locations in the same city quarter.
    depots = [1 * cols + 1, 2 * cols + 3, 4 * cols + 2]
    eta = 0.5
    print(f"\ndepots (intersections): {depots}, threshold eta = {eta}")

    result = engine.query(depots, eta, method="lb")
    reachable = result.nodes
    pruned = graph.num_nodes - len(engine.candidates(depots, eta).candidates)
    print(
        f"RQ-tree-LB: {len(reachable)} intersections reliably reachable "
        f"in {result.total_seconds * 1000:.1f} ms; the index's filter "
        f"prunes {pruned} of {graph.num_nodes} nodes for the other methods"
    )

    proxy = mc_sampling_search(graph, depots, eta, num_samples=500, seed=1)
    agreement = len(reachable & proxy.nodes)
    print(
        f"MC baseline: {len(proxy.nodes)} intersections in "
        f"{proxy.seconds * 1000:.1f} ms; "
        f"{agreement} of the RQ-tree answers confirmed"
    )

    # Render a small ASCII map of the reachable quarter.
    print("\nreachability map (#: reliably reachable, D: depot, .: not):")
    for r in range(min(rows, 12)):
        line = []
        for c in range(min(cols, 36)):
            v = r * cols + c
            if v in depots:
                line.append("D")
            elif v in reachable:
                line.append("#")
            else:
                line.append(".")
        print("  " + "".join(line))


if __name__ == "__main__":
    main()
