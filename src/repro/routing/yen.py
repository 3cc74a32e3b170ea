"""Yen's k-shortest simple paths on the ``1/(eta + eps)`` metric.

The multipath strategy layer (:mod:`repro.routing.strategies`) needs the
best *k* loop-free alternatives between two ground nodes, in
nondecreasing cost order, so it can reserve memory at intermediate
platforms and distill the resulting pairs. Yen's algorithm provides
exactly that: the best path comes from a single-source run, and every
further path is the cheapest "spur" deviation off an already-accepted
path with the deviating edges masked out.

The spur solver is a masked Dijkstra that stops when the destination is
popped. Its ``(cost, node)`` heap keys match
:func:`repro.routing.dijkstra.dijkstra` and a popped node's predecessor
chain is final, so each spur equals a full single-source run over the
masked graph (pinned against one in ``tests/routing/``).

Determinism: candidate spurs are ordered by ``(cost, path)`` — node
names break float ties — so the enumeration order is a pure function of
the graph, independent of dict iteration or hash randomisation.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator

from repro.errors import RoutingError
from repro.network.topology import LinkGraph
from repro.routing.metrics import DEFAULT_EPSILON, edge_cost, path_cost, path_edges

__all__ = ["k_shortest_paths", "yen_paths"]


def _spur_path(
    graph: LinkGraph,
    costs: dict[str, list[tuple[str, float]]],
    source: str,
    destination: str,
    banned_nodes: set[str],
    banned_edges: set[tuple[str, str]],
    epsilon: float,
) -> list[str] | None:
    """Cheapest path avoiding the banned nodes and directed edges, or
    ``None``; ``costs`` memoises expanded nodes' edge costs in order."""
    dist = {source: 0.0}
    pred: dict[str, str] = {}
    heap: list[tuple[float, str]] = [(0.0, source)]
    visited: set[str] = set()
    while heap:
        cost_u, u = heapq.heappop(heap)
        if u in visited:
            continue
        if u == destination:
            path = [u]
            while u != source:
                u = pred[u]
                path.append(u)
            path.reverse()
            return path
        visited.add(u)
        edges = costs.get(u)
        if edges is None:
            edges = costs[u] = [(v, edge_cost(eta, epsilon)) for v, eta in graph[u].items()]
        for v, cost in edges:
            if v in visited or v in banned_nodes or (u, v) in banned_edges:
                continue
            candidate = cost_u + cost
            if candidate < dist.get(v, math.inf):
                dist[v] = candidate
                pred[v] = u
                heapq.heappush(heap, (candidate, v))
    return None


def yen_paths(
    graph: LinkGraph,
    source: str,
    destination: str,
    epsilon: float = DEFAULT_EPSILON,
) -> Iterator[tuple[list[str], float]]:
    """Lazily yield ``(path, cost)`` in nondecreasing cost order.

    Paths are simple (loop-free) by construction: spur computations mask
    every root-prefix node, so a spur can never revisit the prefix. The
    generator terminates when the simple paths are exhausted.

    Raises:
        RoutingError: if either endpoint is not in the graph.
    """
    if source not in graph:
        raise RoutingError(f"source {source!r} is not in the graph")
    if destination not in graph:
        raise RoutingError(f"destination {destination!r} is not in the graph")
    costs: dict[str, list[tuple[str, float]]] = {}
    first = _spur_path(graph, costs, source, destination, set(), set(), epsilon)
    if first is None:
        return
    accepted: list[list[str]] = [first]
    seen: set[tuple[str, ...]] = {tuple(first)}
    yield first, path_cost(path_edges(graph, first), epsilon)
    # Min-heap of (cost, path-tuple) candidate deviations; the path
    # tuple both deduplicates and breaks cost ties deterministically.
    frontier: list[tuple[float, tuple[str, ...]]] = []
    while True:
        prev = accepted[-1]
        for i in range(len(prev) - 1):
            spur_node = prev[i]
            root = prev[: i + 1]
            banned_edges = {
                (p[i], p[i + 1])
                for p in accepted
                if len(p) > i + 1 and p[: i + 1] == root
            }
            spur = _spur_path(
                graph, costs, spur_node, destination,
                set(root[:-1]), banned_edges, epsilon,
            )
            if spur is None:
                continue
            candidate = tuple(root[:-1] + spur)
            if candidate in seen:
                continue
            seen.add(candidate)
            cost = path_cost(path_edges(graph, list(candidate)), epsilon)
            heapq.heappush(frontier, (cost, candidate))
        if not frontier:
            return
        cost, best = heapq.heappop(frontier)
        accepted.append(list(best))
        yield list(best), cost


def k_shortest_paths(
    graph: LinkGraph,
    source: str,
    destination: str,
    k: int,
    epsilon: float = DEFAULT_EPSILON,
) -> list[tuple[list[str], float]]:
    """The best ``k`` simple paths as ``(path, cost)``, cost-ordered.

    Fewer than ``k`` entries are returned when the graph holds fewer
    simple paths; an empty list means the endpoints are disconnected.

    Raises:
        RoutingError: if ``k < 1`` or an endpoint is missing.
    """
    if k < 1:
        raise RoutingError(f"k must be >= 1, got {k}")
    out: list[tuple[list[str], float]] = []
    for path, cost in yen_paths(graph, source, destination, epsilon):
        out.append((path, cost))
        if len(out) == k:
            break
    return out
