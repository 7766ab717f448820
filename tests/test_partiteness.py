"""k-colorability, the partiteness parameter, and class membership."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vklab import (ClassParams, InvalidParamsError, complete_graph,
                   complete_multipartite, cycle_graph, from_edges, in_class,
                   induced_subgraph, is_k_partite, join, join_family_graph,
                   vertex_k_partiteness)
from vklab import partiteness
from vklab.partiteness import partiteness_within

from conftest import nx_of, random_graph


def test_is_k_partite_examples():
    assert not is_k_partite(cycle_graph(5), 2)
    assert is_k_partite(complete_multipartite([3, 3]), 2)
    assert not is_k_partite(complete_graph(4), 3)
    assert is_k_partite(complete_graph(4), 4)


def test_is_k_partite_against_chromatic_number(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8))
        coloring = nx.greedy_color(nx_of(g), strategy="DSATUR")
        upper = max(coloring.values()) + 1 if coloring else 1
        chi = next(k for k in range(1, g.n + 1) if is_k_partite(g, k))
        assert chi <= upper
        assert not is_k_partite(g, chi - 1) if chi > 1 else True
        # independent exact oracle: try all colorings with itertools
        if g.n <= 6:
            ref = _brute_chromatic(g)
            assert chi == ref


def _colourable(g, keep, k):
    """Some map of `keep` to k colours leaves no edge inside one colour."""
    edges = [(keep.index(u), keep.index(v)) for u, v in g.edges()
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
    assert vertex_k_partiteness(cycle_graph(5), 2) == 1
    assert vertex_k_partiteness(complete_graph(4), 2) == 2
    assert vertex_k_partiteness(complete_graph(5), 3) == 2
    assert vertex_k_partiteness(complete_graph(6), 2) == 4


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
def test_within_budget_every_budget_against_brute(data):
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


# P6 labelled 5-0-1-4-3-2: first-fit in descending-degree order (0, 1, 3, 4,
# 2, 5) puts 0 and 3 in one class and 1 in the other, and then finds no
# class for 4, which is adjacent to 1 and 3, although the path is bipartite
_GREEDY_OVERSHOOTS = from_edges(6, [(0, 1), (0, 5), (1, 4), (2, 3), (3, 4)])


def test_partiteness_within_takes_the_certificate_or_the_search(monkeypatch):
    searches, budgets = [], []
    real = partiteness._searcher

    def counting(*args):
        searches.append(args)
        place = real(*args)

        def traced(i, used, budget):
            if i == 0:
                budgets.append(budget)
            return place(i, used, budget)
        return traced

    monkeypatch.setattr(partiteness, "_searcher", counting)
    # the greedy colours these outright, or deletes no more than the budget;
    # the parameter of a greedy-colourable graph needs no search either
    assert partiteness_within(complete_multipartite([2, 2, 2]).adj, 3, (0,)) == 0
    assert partiteness_within(complete_graph(5).adj, 3, (2,)) == 2
    assert vertex_k_partiteness(complete_multipartite([3, 2, 2]), 3) == 0
    assert searches == []
    # the greedy deletes one vertex, over budget 0: one search decides
    assert partiteness_within(_GREEDY_OVERSHOOTS.adj, 2, (0,)) == 0
    assert len(searches) == 1
    assert is_k_partite(_GREEDY_OVERSHOOTS, 2)
    assert len(searches) == 2
    # and a search that fails: C5 needs one deletion
    assert partiteness_within(cycle_graph(5).adj, 2, (0,)) is None
    assert len(searches) == 3
    # the greedy deletes 2 vertices of K5: budgets 0 and 1 are searched, in
    # order and by one searcher, and 2 is certified without a search
    budgets.clear()
    assert vertex_k_partiteness(complete_graph(5), 3) == 2
    assert len(searches) == 4 and budgets == [0, 1]
    # a success stops the ascent: the greedy deletes 4 vertices of K2 joined
    # to K(2,2), and the search at budget 2 succeeds, so 3 is never tried
    budgets.clear()
    g = join(complete_graph(2), complete_multipartite([2, 2]))
    assert partiteness_within(g.adj, 2, (0, 1, 2, 3)) == 2
    assert len(searches) == 5 and budgets == [0, 1, 2]


def test_vk_zero_iff_k_partite(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7))
        assert (vertex_k_partiteness(g, 2) == 0) == is_k_partite(g, 2)


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
        sub = induced_subgraph(g, verts)
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


def test_in_class_examples():
    assert in_class(complete_multipartite([2, 2, 2]), ClassParams(6, 1, 3))
    assert not in_class(complete_graph(6), ClassParams(6, 1, 2))
    assert in_class(join(complete_graph(2), complete_multipartite([2, 2])),
                    ClassParams(6, 2, 2))
    # wrong order is never a member
    assert not in_class(complete_graph(5), ClassParams(6, 4, 2))
