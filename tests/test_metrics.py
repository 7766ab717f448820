"""Distance metrics against a queue-BFS oracle."""

import networkx as nx
import pytest

from vklab import (DisconnectedGraphError, IndexKind, add_edge, compute_metrics, evaluate,
                   from_edges)

from conftest import brute_distances, graph_of_nx, join_of, nx_of, random_connected


def test_complete_graph_metrics():
    m = compute_metrics(graph_of_nx(nx.complete_graph(6)))
    assert m.pair_counts == [0, 15]
    assert m.ecc == [1] * 6
    assert m.transmission == [5] * 6
    assert m.degree == [5] * 6


def test_path_metrics():
    m = compute_metrics(graph_of_nx(nx.path_graph(3)))
    assert m.pair_counts == [0, 2, 1]
    assert m.ecc == [2, 1, 2]
    assert m.transmission == [3, 2, 3]


def test_join_family_metrics():
    g = join_of(2, [2, 2])
    m = compute_metrics(g)
    assert m.degree == [5, 5, 4, 4, 4, 4]
    assert m.ecc == [1, 1, 2, 2, 2, 2]
    assert m.transmission == [5, 5, 6, 6, 6, 6]


def test_disconnected_is_an_error():
    for g in (graph_of_nx(nx.empty_graph(3)),
              from_edges(4, [(1, 2), (2, 3)]),                  # isolated first vertex
              from_edges(4, [(0, 1), (1, 2)]),                  # isolated last vertex
              from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),  # two paths
              from_edges(7, [(0, 1), (0, 2), (1, 2),            # a triangle and
                             (3, 4), (4, 5), (5, 6), (6, 3)])):  # a 4-cycle
        with pytest.raises(DisconnectedGraphError):
            compute_metrics(g)


def test_matches_brute_bfs(rng):
    for _ in range(60):
        g = random_connected(rng, rng.randint(2, 10))
        m = compute_metrics(g)
        ref = brute_distances(g)
        assert m.transmission == [sum(row) for row in ref]
        assert m.ecc == [max(row) for row in ref]


def test_per_distance_sums_match_brute_bfs(rng):
    graphs = [random_connected(rng, rng.randint(2, 20), rng.choice((0.2, 0.5, 0.8)))
              for _ in range(40)]
    # every source of a complete graph, and the centre of a star, sees the
    # whole graph at distance 1; paths give the longest diameters
    graphs += [graph_of_nx(nx.complete_graph(n)) for n in range(2, 9)]
    graphs += [graph_of_nx(nx.complete_multipartite_graph(1, n - 1)) for n in range(2, 9)]
    graphs += [graph_of_nx(nx.path_graph(n)) for n in (2, 3, 4, 9, 20, 64)]
    for g in graphs:
        m = compute_metrics(g)
        ref = brute_distances(g)
        deg = g.degrees()
        diameter = max(max(row) for row in ref)
        counts = [0] * (diameter + 1)
        sums = [0] * (diameter + 1)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                counts[ref[u][v]] += 1
                sums[ref[u][v]] += deg[u] + deg[v]
        assert m.pair_counts == counts
        assert m.degree_sums == sums
        assert m.transmission == [sum(row) for row in ref]
        assert m.ecc == [max(row) for row in ref]


def test_symmetry_zero_diagonal_and_triangle_inequality(rng):
    for _ in range(30):
        g = random_connected(rng, rng.randint(3, 9))
        m = compute_metrics(g)
        # each unordered pair once, none at distance 0
        assert m.pair_counts[0] == 0
        assert sum(m.pair_counts) == g.n * (g.n - 1) // 2
        # d(u, w) <= d(u, v) + d(v, w): adjacent eccentricities differ by at
        # most one, and the diameter is at most twice the radius
        assert all(abs(m.ecc[u] - m.ecc[v]) <= 1 for u, v in nx_of(g).edges())
        assert max(m.ecc) <= 2 * min(m.ecc)


def test_distance_one_iff_edge(rng):
    for _ in range(30):
        g = random_connected(rng, rng.randint(2, 9))
        m = compute_metrics(g)
        deg = g.degrees()
        assert m.pair_counts[1] == g.edge_count()
        assert m.degree_sums[1] == sum(deg[u] + deg[v] for u, v in nx_of(g).edges())


def test_total_transmission_is_twice_wiener(rng):
    for _ in range(30):
        g = random_connected(rng, rng.randint(2, 9))
        m = compute_metrics(g)
        assert sum(m.transmission) == 2 * evaluate(IndexKind.WIENER, g, m)


def test_edge_addition_never_increases_distances(rng):
    for _ in range(40):
        g = random_connected(rng, rng.randint(3, 9))
        non_edges = list(g.non_edges())
        if not non_edges:
            continue
        u, v = non_edges[rng.randrange(len(non_edges))]
        before = compute_metrics(g)
        after = compute_metrics(add_edge(g, u, v))
        assert all(a <= b for a, b in zip(after.transmission, before.transmission))
        assert all(a <= b for a, b in zip(after.ecc, before.ecc))
        # d(u, v) falls from at least 2 to 1
        assert after.transmission[u] < before.transmission[u]
        assert after.transmission[v] < before.transmission[v]
        assert after.pair_counts[1] == before.pair_counts[1] + 1
