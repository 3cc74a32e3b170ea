"""Tests for the Bellman–Ford implementations of Algorithm 1."""

import math

import numpy as np
import pytest

from repro.errors import NoPathError, RoutingError
from repro.routing.bellman_ford import (
    FlatGraph,
    bellman_ford,
    build_routing_tables,
    shortest_path,
)
from repro.routing.metrics import DEFAULT_EPSILON, edge_cost

TRIANGLE = {
    "a": {"b": 0.9, "c": 0.5},
    "b": {"a": 0.9, "c": 0.9},
    "c": {"a": 0.5, "b": 0.9},
}

DISCONNECTED = {
    "a": {"b": 0.8},
    "b": {"a": 0.8},
    "island": {},
}


class TestBellmanFord:
    def test_direct_vs_two_hop_tradeoff(self):
        """a->c direct has eta 0.5 (cost 2); a->b->c costs ~2.22: direct wins."""
        result = bellman_ford(TRIANGLE, "a")
        assert result.path_to("c") == ["a", "c"]

    def test_relay_preferred_when_direct_is_weak(self):
        graph = {
            "a": {"b": 0.95, "c": 0.3},
            "b": {"a": 0.95, "c": 0.95},
            "c": {"a": 0.3, "b": 0.95},
        }
        # direct cost 1/0.3 = 3.33 > two-hop 2/0.95 = 2.11.
        result = bellman_ford(graph, "a")
        assert result.path_to("c") == ["a", "b", "c"]

    def test_source_cost_zero(self):
        result = bellman_ford(TRIANGLE, "a")
        assert result.costs["a"] == 0.0
        assert result.predecessors["a"] is None

    def test_costs_are_edge_sums(self):
        result = bellman_ford(TRIANGLE, "a")
        assert result.costs["b"] == pytest.approx(edge_cost(0.9))

    def test_unreachable_infinite(self):
        result = bellman_ford(DISCONNECTED, "a")
        assert math.isinf(result.costs["island"])
        with pytest.raises(NoPathError):
            result.path_to("island")

    def test_unknown_source_rejected(self):
        with pytest.raises(RoutingError):
            bellman_ford(TRIANGLE, "ghost")

    def test_line_graph_path(self):
        line = {
            "n0": {"n1": 0.9},
            "n1": {"n0": 0.9, "n2": 0.8},
            "n2": {"n1": 0.8, "n3": 0.7},
            "n3": {"n2": 0.7},
        }
        result = bellman_ford(line, "n0")
        assert result.path_to("n3") == ["n0", "n1", "n2", "n3"]


def reference_bellman_ford(graph, source, epsilon=DEFAULT_EPSILON):
    """Textbook dict-loop Bellman–Ford: the oracle for :class:`FlatGraph`.

    Relaxes edges in dict iteration order (outer dict, then neighbors)
    with the ``candidate < cost - 1e-15`` improvement rule, so ties go to
    the first relaxation that reached a node.
    """
    costs = {node: math.inf for node in graph}
    predecessors = {node: None for node in graph}
    costs[source] = 0.0
    for _ in range(max(len(graph) - 1, 1)):
        changed = False
        for u, neighbors in graph.items():
            for v, eta in neighbors.items():
                candidate = costs[u] + edge_cost(eta, epsilon)
                if candidate < costs[v] - 1e-15:
                    costs[v] = candidate
                    predecessors[v] = u
                    changed = True
        if not changed:
            break
    return costs, predecessors


def tied_random_graph(rng, n_nodes=40, n_edges=160):
    """Random undirected graph whose etas come from three values.

    Drawing from a tiny eta set makes many distinct paths cost exactly
    the same, so the tie-break rule decides a large share of the
    predecessors.
    """
    graph = {f"n{i}": {} for i in range(n_nodes)}
    for _ in range(n_edges):
        a, b = rng.integers(0, n_nodes, size=2)
        if a == b:
            continue
        eta = float(rng.choice([0.25, 0.5, 0.8]))
        graph[f"n{a}"][f"n{b}"] = eta
        graph[f"n{b}"][f"n{a}"] = eta
    return graph


class TestFlatGraphExact:
    """FlatGraph.tree matches the dict-loop reference bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_graphs_match_reference(self, seed):
        graph = tied_random_graph(np.random.default_rng(seed))
        flat = FlatGraph(graph)
        for source in ("n0", "n7", "n23"):
            costs, predecessors = reference_bellman_ford(graph, source)
            tree = flat.tree(source)
            assert tree.costs == costs  # exact float equality
            assert tree.predecessors == predecessors
            wrapper = bellman_ford(graph, source)
            assert wrapper.costs == costs
            assert wrapper.predecessors == predecessors

    def test_equal_cost_tie_keeps_first_relaxation(self):
        # a->b->d and a->c->d cost exactly the same; b is relaxed first.
        diamond = {
            "a": {"b": 0.5, "c": 0.5},
            "b": {"a": 0.5, "d": 0.5},
            "c": {"a": 0.5, "d": 0.5},
            "d": {"b": 0.5, "c": 0.5},
        }
        tree = FlatGraph(diamond).tree("a")
        assert tree.predecessors["d"] == "b"
        assert tree.path_to("d") == ["a", "b", "d"]

    def test_disconnected_nodes_unreachable(self):
        graph = {"a": {"b": 0.5}, "b": {"a": 0.5}, "c": {}}
        tree = FlatGraph(graph).tree("a")
        assert tree.predecessors["c"] is None
        assert math.isinf(tree.costs["c"])


class TestShortestPath:
    def test_returns_path_and_product(self):
        path, eta = shortest_path(TRIANGLE, "a", "b")
        assert path == ["a", "b"]
        assert eta == pytest.approx(0.9)

    def test_multihop_product(self):
        graph = {
            "a": {"b": 0.95},
            "b": {"a": 0.95, "c": 0.9},
            "c": {"b": 0.9},
        }
        path, eta = shortest_path(graph, "a", "c")
        assert path == ["a", "b", "c"]
        assert eta == pytest.approx(0.95 * 0.9)

    def test_no_path(self):
        with pytest.raises(NoPathError):
            shortest_path(DISCONNECTED, "a", "island")

    def test_source_equals_destination(self):
        path, eta = shortest_path(TRIANGLE, "a", "a")
        assert path == ["a"]
        assert eta == 1.0


class TestRoutingTables:
    def test_tables_match_single_source_costs(self):
        """The literal Algorithm 1 agrees with the relaxation form."""
        tables = build_routing_tables(TRIANGLE)
        for source in TRIANGLE:
            reference = bellman_ford(TRIANGLE, source)
            for dest in TRIANGLE:
                assert tables[source].cost(dest) == pytest.approx(
                    reference.costs[dest], abs=1e-9
                )

    def test_tables_on_disconnected_graph(self):
        tables = build_routing_tables(DISCONNECTED)
        assert math.isinf(tables["a"].cost("island"))
        assert not tables["a"].get("island").reachable

    def test_self_entry(self):
        tables = build_routing_tables(TRIANGLE)
        entry = tables["a"].get("a")
        assert entry.cost == 0.0
        assert entry.via is None

    def test_neighbor_via_is_direct(self):
        tables = build_routing_tables(TRIANGLE)
        assert tables["a"].get("b").via == "b"

    def test_random_graph_equivalence(self, rng):
        """Both implementations agree on random connected graphs."""
        n = 12
        names = [f"v{i}" for i in range(n)]
        graph = {name: {} for name in names}
        # Ring for connectivity plus random chords.
        for i in range(n):
            j = (i + 1) % n
            eta = float(rng.uniform(0.1, 1.0))
            graph[names[i]][names[j]] = eta
            graph[names[j]][names[i]] = eta
        for _ in range(10):
            i, j = rng.choice(n, size=2, replace=False)
            eta = float(rng.uniform(0.1, 1.0))
            graph[names[i]][names[j]] = eta
            graph[names[j]][names[i]] = eta
        tables = build_routing_tables(graph)
        for source in names[:4]:
            reference = bellman_ford(graph, source)
            for dest in names:
                assert tables[source].cost(dest) == pytest.approx(
                    reference.costs[dest], abs=1e-9
                )
