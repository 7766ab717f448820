"""k-colorability, the partiteness parameter, and class membership."""

import itertools
import random
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vklab import (ClassParams, InvalidParamsError, from_edges, join_family_graph,
                   vertex_k_partiteness)
from vklab import partiteness
from vklab.partiteness import partiteness_within

from conftest import graph_of_nx, join_of, nx_of, random_graph

C5 = graph_of_nx(nx.cycle_graph(5))
K4, K5, K6 = (graph_of_nx(nx.complete_graph(n)) for n in (4, 5, 6))


def test_partiteness_within_zero_budget_examples():
    k33 = graph_of_nx(nx.complete_multipartite_graph(3, 3))
    assert partiteness_within(C5.adj, 2, (0,)) is None
    assert partiteness_within(k33.adj, 2, (0,)) is not None
    assert partiteness_within(K4.adj, 3, (0,)) is None
    assert partiteness_within(K4.adj, 4, (0,)) is not None


def test_partiteness_within_zero_budget_against_chromatic_number(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8))
        coloring = nx.greedy_color(nx_of(g), strategy="DSATUR")
        upper = max(coloring.values()) + 1 if coloring else 1
        chi = next(k for k in range(1, g.n + 1)
                   if partiteness_within(g.adj, k, (0,)) is not None)
        assert chi <= upper
        assert partiteness_within(g.adj, chi - 1, (0,)) is None if chi > 1 else True
        # independent exact oracle: try all colorings with itertools
        if g.n <= 6:
            ref = _brute_chromatic(g)
            assert chi == ref


def _colourable(g, keep, k):
    """Some map of `keep` to k colours leaves no edge inside one colour."""
    edges = [(keep.index(u), keep.index(v)) for u, v in nx_of(g).edges()
             if u in keep and v in keep]
    return any(all(colors[a] != colors[b] for a, b in edges)
               for colors in itertools.product(range(k), repeat=len(keep)))


def _brute_chromatic(g):
    return next(k for k in range(1, g.n + 1) if _colourable(g, list(range(g.n)), k))


def brute_vk(g, k):
    """Fewest deletions leaving a k-colourable rest, by exhaustive colourings."""
    for ell in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), ell):
            if _colourable(g, [v for v in range(g.n) if v not in subset], k):
                return ell
    raise AssertionError


def test_vertex_k_partiteness_examples():
    assert vertex_k_partiteness(C5, 2) == 1
    assert vertex_k_partiteness(K4, 2) == 2
    assert vertex_k_partiteness(K5, 3) == 2
    assert vertex_k_partiteness(K6, 2) == 4


def test_vertex_k_partiteness_against_brute(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 7))
        for k in (2, 3):
            if g.n >= k:
                assert vertex_k_partiteness(g, k) == brute_vk(g, k)


def _random_graph_up_to_8(data):
    k = data.draw(st.sampled_from((2, 3, 4)), label="k")
    n = data.draw(st.integers(k, 8), label="n")
    pairs = list(itertools.combinations(range(n), 2))
    present = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                                 max_size=len(pairs)), label="edges")
    return from_edges(n, [p for p, keep in zip(pairs, present) if keep]), k


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_partiteness_within_every_cap_against_brute(data):
    """Over every prefix range(cap + 1), the least budget at or above v_k is
    v_k itself when v_k <= cap, else None (cap = n - k gives the parameter)."""
    g, k = _random_graph_up_to_8(data)
    want = brute_vk(g, k)
    for cap in range(g.n - k + 1):
        assert partiteness_within(g.adj, k, range(cap + 1)) == \
            (want if want <= cap else None)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_partiteness_within_every_budget_against_brute(data):
    """Membership at every single budget b is v_k <= b; on a few drawn
    ascending budget sets the answer is the smallest b with v_k <= b, or None."""
    g, k = _random_graph_up_to_8(data)
    want = brute_vk(g, k)
    top = g.n - k
    for budget in range(top + 1):
        assert (partiteness_within(g.adj, k, (budget,)) is not None) == (want <= budget)
    drawn = data.draw(st.lists(st.sets(st.integers(0, top), min_size=1).map(sorted),
                               min_size=1, max_size=4), label="budget sets")
    for budgets in drawn:
        assert partiteness_within(g.adj, k, budgets) == \
            next((b for b in budgets if want <= b), None), budgets


# P4 labelled 0-2-3-1: first-fit in vertex order puts 0 and 1 in one
# class and 2 in the other, and then finds no class for 3, which is
# adjacent to 1 and 2, although the path is bipartite (in descending-degree
# order, 2, 3, 0, 1, the same first-fit colours it outright)
_GREEDY_OVERSHOOTS = from_edges(4, [(0, 2), (2, 3), (1, 3)])


def test_partiteness_within_takes_the_certificate_or_the_search(monkeypatch):
    searches, budgets, places = [], [], []
    real = partiteness._searcher

    def count_places(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "place":
            places.append(frame.f_code.co_name)

    def counting(*args):
        searches.append(args)
        place = real(*args)

        def traced(i, used, budget):
            if i == 0:
                budgets.append(budget)
            sys.setprofile(count_places)
            try:
                return place(i, used, budget)
            finally:
                sys.setprofile(None)
        return traced

    monkeypatch.setattr(partiteness, "_searcher", counting)
    # the greedy colours these outright, or deletes no more than the budget;
    # the parameter of a greedy-colourable graph needs no search either
    k222 = graph_of_nx(nx.complete_multipartite_graph(2, 2, 2))
    assert partiteness_within(k222.adj, 3, (0,)) == 0
    assert partiteness_within(K5.adj, 3, (2,)) == 2
    assert vertex_k_partiteness(graph_of_nx(nx.complete_multipartite_graph(3, 2, 2)), 3) == 0
    assert searches == []
    # the greedy deletes one vertex, over budget 0: one search decides
    assert partiteness_within(_GREEDY_OVERSHOOTS.adj, 2, (0,)) == 0
    assert len(searches) == 1
    assert partiteness_within(_GREEDY_OVERSHOOTS.adj, 2, (0,)) is not None
    assert len(searches) == 2
    # and a search that fails: C5 needs one deletion
    assert partiteness_within(C5.adj, 2, (0,)) is None
    assert len(searches) == 3
    # the greedy deletes 2 vertices of K5: budgets 0 and 1 are searched, in
    # order and by one searcher, and 2 is certified without a search
    budgets.clear()
    assert vertex_k_partiteness(K5, 3) == 2
    assert len(searches) == 4 and budgets == [0, 1]
    # a success stops the ascent: the greedy deletes 4 vertices of K2 joined
    # to K(2,2), and the search at budget 2 succeeds, so 3 is never tried;
    # the search deletes a vertex before it colours it, which makes 21
    # `place` calls over the three budgets (colouring first makes 39)
    budgets.clear()
    places.clear()
    g = join_of(2, [2, 2])
    assert partiteness_within(g.adj, 2, (0, 1, 2, 3)) == 2
    assert len(searches) == 5 and budgets == [0, 1, 2]
    assert len(places) == 21


@pytest.mark.parametrize("n", range(9, 13))
def test_partiteness_within_ignores_vertex_labels(n):
    """The first-fit certificate runs in vertex order, so it can succeed on
    one labelling of a graph and fail on another; the answer must not
    depend on which. Every k in {2, 3, 4} and a few budget sets are tried
    on random graphs of n vertices under random relabellings."""
    rnd = random.Random(n)
    for _ in range(6):
        g = random_graph(rnd, n, p=rnd.uniform(0.3, 0.8))
        for k in (2, 3, 4):
            top = n - k
            sets = [range(top + 1), (0,), (1, 2), (top // 2, top),
                    sorted(rnd.sample(range(top + 1), 3))]
            want = [partiteness_within(g.adj, k, budgets) for budgets in sets]
            for _ in range(4):
                perm = list(range(n))
                rnd.shuffle(perm)
                h = from_edges(n, [(perm[u], perm[v]) for u, v in nx_of(g).edges()])
                assert [partiteness_within(h.adj, k, budgets) for budgets in sets] == want


def test_vk_of_large_construction_is_m():
    """Beyond the brute-force range: K_m joined onto a complete k-partite
    graph has v_k = m, for 20 <= n <= 40."""
    for m, sizes in ((2, [6, 6, 6]), (5, [4, 4, 4, 3]), (8, [8, 9]),
                     (10, [10, 10, 10]), (6, [7, 7, 7, 7, 6]), (3, [12, 13])):
        assert 20 <= m + sum(sizes) <= 40
        k = len(sizes)
        assert vertex_k_partiteness(join_family_graph(m, sizes), k) == m


def test_vk_zero_iff_k_partite(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7))
        assert (vertex_k_partiteness(g, 2) == 0) == _colourable(g, list(range(g.n)), 2)


def test_vk_monotone_in_k_and_bounded(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(4, 7))
        values = [vertex_k_partiteness(g, k) for k in range(2, g.n + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for k, v in zip(range(2, g.n + 1), values):
            assert v <= g.n - k


def test_vk_of_construction_is_m():
    for n in range(4, 10):
        for k in (2, 3, 4):
            for m in range(1, n - k + 1):
                rest = n - m
                for sizes in itertools.combinations_with_replacement(range(1, rest + 1), k):
                    if sum(sizes) != rest:
                        continue
                    g = join_family_graph(m, list(sizes))
                    assert vertex_k_partiteness(g, k) == m


def test_vk_never_raised_by_induced_subgraph(rng):
    for _ in range(25):
        g = random_graph(rng, 7)
        whole = vertex_k_partiteness(g, 2)
        verts = sorted(rng.sample(range(7), rng.randint(2, 7)))
        sub = graph_of_nx(nx_of(g).subgraph(verts))
        if sub.n >= 2:
            assert vertex_k_partiteness(sub, 2) <= whole


def test_class_params_validation():
    ClassParams(6, 2, 2)
    with pytest.raises(InvalidParamsError):
        ClassParams(6, 5, 2)  # m > n - k
    with pytest.raises(InvalidParamsError):
        ClassParams(6, 0, 2)
    with pytest.raises(InvalidParamsError):
        ClassParams(6, 1, 1)
