"""Graph construction, graph6 I/O against the networkx reference and the
bit-by-bit decoder, and the canonical form."""

import pickle
import random
from collections import Counter
from math import factorial, prod

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vklab import (Graph, GraphSizeError, Graph6ParseError, SizeCapError, add_edge,
                   canonical_form, canonical_graph, is_connected, join_family_graph,
                   parse_graph6, to_graph6)
from vklab.graphs import (_canonical_search, _refinement_classes, _twin_groups, code_to_adj,
                          code_to_graph, connected_mask, from_edges, pair_count)
from vklab.search import _extend, _partitions_at_most, catalogue

from conftest import (graph_of_nx, graph_to_code, nx_of, random_graph,
                      reference_canonical_search, reference_parse_graph6,
                      reference_refinement_classes)


def test_complete_and_empty_edge_counts():
    assert graph_of_nx(nx.complete_graph(4)).edge_count() == 6
    assert graph_of_nx(nx.empty_graph(5)).edge_count() == 0
    assert nx.is_isomorphic(nx_of(graph_of_nx(nx.complete_graph(2))), nx.path_graph(2))


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_vertex_cap_boundaries(n):
    assert graph_of_nx(nx.complete_graph(n)).n == n


@pytest.mark.parametrize("n", [0, 65, -1])
def test_vertex_cap_violations(n):
    with pytest.raises(GraphSizeError):
        from_edges(n, ())


def test_graph_is_immutable_value():
    g = graph_of_nx(nx.cycle_graph(5))
    with pytest.raises(AttributeError):
        g.n = 6
    assert g == graph_of_nx(nx.cycle_graph(5))
    assert hash(g) == hash(graph_of_nx(nx.cycle_graph(5)))
    assert pickle.loads(pickle.dumps(g)) == g  # rebuilt by Graph(adj)


def test_adjacency_validation():
    with pytest.raises(ValueError):
        Graph((1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph((2, 0, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph((1 | 2, 1))  # self-loop at 0


def test_complement_k23_is_k2_union_k3():
    cmpl = graph_of_nx(nx.complement(nx.complete_multipartite_graph(2, 3)))
    assert cmpl.edge_count() == 4
    comps = list(nx.connected_components(nx_of(cmpl)))
    assert sorted(len(c) for c in comps) == [2, 3]
    assert not is_connected(cmpl)


def test_is_connected():
    assert is_connected(graph_of_nx(nx.complete_graph(4)))
    assert not is_connected(graph_of_nx(nx.empty_graph(3)))
    assert not is_connected(graph_of_nx(nx.complement(nx.complete_multipartite_graph(2, 3))))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_connected_mask_from_seen_within_keep(data):
    """The vertices reached from `seen` through `keep` are the components
    of the seen vertices in the subgraph induced by keep and seen."""
    n = data.draw(st.integers(1, 8))
    g = code_to_graph(data.draw(st.integers(0, (1 << pair_count(n)) - 1)), n)
    full = (1 << n) - 1
    seen = data.draw(st.integers(1, full))
    keep = data.draw(st.integers(0, full))
    sub = nx_of(g).subgraph(v for v in range(n) if (seen | keep) >> v & 1)
    reached = set().union(*(nx.node_connected_component(sub, v)
                            for v in range(n) if seen >> v & 1))
    assert connected_mask(g.adj, seen, keep) == sum(1 << v for v in reached)
    from_zero = nx.node_connected_component(nx_of(g), 0)
    assert connected_mask(g.adj) == sum(1 << v for v in from_zero)


def test_add_edge_builder():
    g = graph_of_nx(nx.path_graph(3))
    g2 = add_edge(g, 0, 2)
    assert g.edge_count() == 2 and g2.edge_count() == 3
    with pytest.raises(ValueError):
        add_edge(g2, 0, 2)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def test_graph6_known_vectors():
    assert nx.is_isomorphic(nx_of(parse_graph6("A_")), nx.complete_graph(2))
    assert parse_graph6("A?") == graph_of_nx(nx.empty_graph(2))
    assert parse_graph6("D~{") == graph_of_nx(nx.complete_graph(5))


def test_graph6_round_trip_random(rng):
    for _ in range(1000):
        g = random_graph(rng, rng.randint(2, 20))
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_matches_networkx_reference(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 20))
        ours = to_graph6(g)
        ref = nx.to_graph6_bytes(nx_of(g), header=False).decode().strip()
        assert ours == ref


def test_graph6_large_n_round_trip(rng):
    # n = 62 is the last one-character header; 63 and 64 take "~" plus 18 bits
    for n, head in ((62, "}"), (63, "~??~"), (64, "~?@?")):
        g = random_graph(rng, n, p=0.1)
        text = to_graph6(g)
        assert text.startswith(head) and len(text) == len(head) + (pair_count(n) + 5) // 6
        assert parse_graph6(text) == g == reference_parse_graph6(text)


@pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 62, 63, 64])
def test_graph6_at_each_row_width_boundary(n, rng):
    """The decoder unpacks rows as 8-, 16-, 32- or 64-bit fields, the least
    that holds n: each n here is the last or the first of a width (or the
    last one-character header), and the empty, complete and random graphs
    on it round-trip and agree with the bit-by-bit oracle."""
    full = (1 << n) - 1
    cases = [Graph(tuple([0] * n)), Graph(tuple(full ^ 1 << u for u in range(n)))]
    cases += [random_graph(rng, n, p=p) for p in (0.1, 0.5, 0.9)]
    for g in cases:
        text = to_graph6(g)
        assert parse_graph6(text) == g == reference_parse_graph6(text)


def test_graph6_malformed():
    for bad in ("", "garbage!", "A", "A_~", "D~", "\x1c_"):
        with pytest.raises(Graph6ParseError):
            parse_graph6(bad)


@pytest.mark.parametrize("bad,message", [
    ("A`", "nonzero padding bits"),
    (">>graph6<<", "empty line"),
    ("A\x7f", "invalid character '\\x7f'"),
    ("D_\x80\x7f", "expected 2 data characters for n=5, got 3"),
    ("D\x80\x7f", "invalid character '\\x80'"),
    ("D?\x7f", "invalid character '\\x7f'"),
    ("~?@", "truncated extended vertex count"),
    ("~~??", "graphs beyond 64 vertices are unsupported"),
    ("~?@@", "vertex count 65 outside 1..64"),
    (">", "invalid character '>'"),
    # only ' ', '\t', '\r' and '\n' are trimmed, not str.strip's other whitespace
    ("\x1c_", "invalid character '\\x1c'"),
    ("\x1cBw", "invalid character '\\x1c'"),
    ("Bw\x1f", "expected 1 data characters for n=3, got 2"),
    ("\x85Bw", "invalid character '\\x85'"),
    ("?", "vertex count 0 outside 1..64"),
])
def test_graph6_malformed_messages(bad, message):
    for parse in (parse_graph6, reference_parse_graph6):
        with pytest.raises(Graph6ParseError) as err:
            parse(bad)
        assert str(err.value) == message


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except Graph6ParseError as exc:
        return str(exc)


# body characters around both ends of the valid range '?'..'~', and beyond
_GRAPH6_NOISE = st.one_of(st.characters(min_codepoint=0x3A, max_codepoint=0x83),
                          st.characters(max_codepoint=0x2FF))


# one integer seed per example: a hypothesis `randoms()` object would cost one
# draw per vertex pair, about 122,000 draws over the 300 examples
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(st.tuples(st.sampled_from(["replace", "delete", "insert", "truncate"]),
                          st.integers(min_value=0), _GRAPH6_NOISE), max_size=3))
@settings(max_examples=300, deadline=None)
def test_graph6_decoder_matches_bit_by_bit_oracle(n, seed, edits):
    rnd = random.Random(seed)
    g = random_graph(rnd, n, p=rnd.random())
    text = to_graph6(g)
    if not edits:
        assert parse_graph6(text) == g == reference_parse_graph6(text)
    for op, at, ch in edits:
        at %= len(text) + 1
        if op == "replace":
            text = text[:at] + ch + text[at + 1:]
        elif op == "delete":
            text = text[:at] + text[at + 1:]
        elif op == "insert":
            text = text[:at] + ch + text[at:]
        else:
            text = text[:at]
    ours = _parse_outcome(parse_graph6, text)
    assert ours == _parse_outcome(reference_parse_graph6, text)


@given(st.integers(min_value=0, max_value=(1 << 15) - 1))
@settings(max_examples=200, deadline=None)
def test_graph6_round_trip_exhaustive_codes(code):
    g = code_to_graph(code, 6)
    assert parse_graph6(to_graph6(g)) == g
    assert graph_to_code(g) == code


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_c4_equals_k22():
    assert canonical_form(graph_of_nx(nx.cycle_graph(4))) == \
        canonical_form(graph_of_nx(nx.complete_multipartite_graph(2, 2)))


def test_canonical_distinguishes_k3_p3():
    assert canonical_form(graph_of_nx(nx.complete_graph(3))) != \
        canonical_form(graph_of_nx(nx.path_graph(3)))


def test_canonical_counts_on_four_vertices():
    codes = {canonical_form(code_to_graph(c, 4)) for c in range(1 << pair_count(4))}
    assert len(codes) == 11


def test_canonical_permutation_invariance(rng):
    for _ in range(100):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        assert canonical_form(g) == canonical_form(_shuffled(rng, g))


def test_canonical_agrees_with_networkx(rng):
    # equal codes <=> isomorphic, cross-checked against the VF2 matcher
    graphs = [random_graph(rng, 6) for _ in range(40)]
    for a in graphs[:12]:
        for b in graphs[:12]:
            ref = nx.is_isomorphic(nx_of(a), nx_of(b))
            assert (canonical_form(a) == canonical_form(b)) == ref


def test_canonical_graph_is_isomorphic_relabeling(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7))
        cg = canonical_graph(g)
        assert nx.is_isomorphic(nx_of(g), nx_of(cg))
        assert canonical_form(cg) == canonical_form(g)


def _shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return _relabelled(g, perm)


def _relabelled(g, perm):
    """g with vertex u renamed perm[u]."""
    return graph_of_nx(nx.relabel_nodes(nx_of(g), dict(enumerate(perm))))


def _join_family(nmin, nmax):
    """K_m joined onto K(sizes) for every m >= 1 and every partition `sizes`
    of n - m >= 2 (the join family of every class on nmin..nmax vertices)."""
    return [join_family_graph(m, sizes) for n in range(nmin, nmax + 1)
            for m in range(1, n - 1) for sizes in _partitions_at_most(n - m, n - m)]


def test_canonical_search_matches_exhaustive_reference(rng):
    graphs = []
    for n in range(2, 7):  # every one-vertex extension the catalogue build tries
        for bits, _ in catalogue(n - 1):
            rows = code_to_adj(bits, n - 1)
            for nbhd in range(1, 1 << (n - 1)):
                adj = [row | 1 << (n - 1) if nbhd >> u & 1 else row
                       for u, row in enumerate(rows)]
                graphs.append(_shuffled(rng, Graph((*adj, nbhd))))
    graphs += [random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
               for _ in range(200)]
    graphs += [graph_of_nx(h) for h in (nx.complete_graph(8), nx.complete_multipartite_graph(4, 4),
                                        nx.complete_multipartite_graph(3, 3, 2))]
    graphs += set(_join_family(3, 8))
    for g in graphs:
        assert _canonical_search(g)[:2] == reference_canonical_search(g), g.adj


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_bitset_refinement_matches_the_list_reference(data):
    """The bitset refinement gives the list reference's ordered classes,
    and relabelling a graph relabels its classes."""
    n = data.draw(st.integers(1, 10))
    p = data.draw(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)))
    g = random_graph(data.draw(st.randoms(use_true_random=False)), n, p)
    perm = data.draw(st.permutations(range(n)))
    h = _relabelled(g, perm)
    classes = _refinement_classes(h)
    assert classes == [sum(1 << u for u in c) for c in reference_refinement_classes(h)]
    assert classes == [sum(1 << perm[u] for u in range(n) if c >> u & 1)
                       for c in _refinement_classes(g)]


def test_aut_of_twin_free_symmetric_graphs_matches_networkx(rng):
    # one refinement class and no twins: the search keeps the most nodes alive
    moebius = from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
    graphs = (graph_of_nx(nx.cycle_graph(7)), graph_of_nx(nx.cycle_graph(8)),
              graph_of_nx(nx.hypercube_graph(3)), moebius)
    auts = []
    for g in graphs:
        assert _twin_groups(g.adj) == [] and len(_refinement_classes(g)) == 1
        h = nx_of(g)
        auts.append(sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter()))
        code, aut, _ = _canonical_search(g)
        assert aut == auts[-1]
        assert _canonical_search(_shuffled(rng, g))[:2] == (code, aut)
    assert auts == [14, 16, 48, 16]


def _multipartite_aut(sizes) -> int:
    return (prod(factorial(s) for s in sizes)
            * prod(factorial(c) for c in Counter(sizes).values()))


def test_canonical_form_past_the_old_budget(rng):
    # K9, K(3,3,3) and the join-family graphs on 9..12 vertices have more
    # than the budget's 50,000 refinement-admissible orderings, but the
    # search keeps one vertex per twin group and so few nodes alive
    k9 = graph_of_nx(nx.complete_graph(9))
    k333 = graph_of_nx(nx.complete_multipartite_graph(3, 3, 3))
    for g in (k9, k333):
        with pytest.raises(SizeCapError):
            reference_canonical_search(g)
    graphs = [k9, k333, *_join_family(9, 12)]
    by_degrees = {}
    for g in graphs:
        sizes = sorted(Counter(g.adj).values())  # K_m counts as m parts of size 1
        code, aut, _ = _canonical_search(g)
        assert aut == _multipartite_aut(sizes)
        copy = _shuffled(rng, g)
        assert canonical_form(copy).bits == code
        by_degrees.setdefault(tuple(sorted(g.degrees())), []).append(((g.n, code), copy))
    # a complete multipartite graph is fixed by its degree sequence, and
    # K_m with singleton parts is one larger clique: one code per sequence
    for same in by_degrees.values():
        assert len({code for code, _ in same}) == 1
        a, b = same[0][1], same[-1][1]
        assert canonical_form(a) == canonical_form(b) and nx.is_isomorphic(nx_of(a), nx_of(b))
    assert len({same[0][0] for same in by_degrees.values()}) == len(by_degrees)


def _rook(a: int, b: int) -> Graph:
    return graph_of_nx(nx.cartesian_product(nx.complete_graph(a), nx.complete_graph(b)))


def test_budget_counts_live_nodes(rng):
    # K2 x K_r has no twins and one refinement class, so every automorphism
    # is a live node at the last depths: 2 * 8! = 80,640 is over the budget
    # in every labelling, 2 * 7! is not
    for g in (_rook(2, 8), _shuffled(rng, _rook(2, 8))):
        with pytest.raises(SizeCapError, match=r"^canonical search holds \d+ live nodes, "
                                               r"over the budget 50000 \(n=16\)$"):
            canonical_form(g)
    assert _canonical_search(_rook(2, 7))[1] == 2 * factorial(7)


def test_canonical_search_on_nine_vertices(rng):
    # the n = 9 classes whose parents are a seeded sample of n = 8 classes:
    # the stored |Aut|, from the labeller or from |Aut P| / |orbit of S|,
    # against networkx, and codes against the exhaustive reference
    # wherever it takes them
    checked = 0
    children = _extend(9, rng.sample(catalogue(8), 12))
    assert children
    for bits, aut in children:
        g = code_to_graph(bits, 9)
        h = nx_of(g)
        assert aut == sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
        code, label_aut, _ = _canonical_search(g)
        assert label_aut == aut
        assert _canonical_search(_shuffled(rng, g))[:2] == (code, aut)
        try:
            assert reference_canonical_search(g) == (code, aut)
            checked += 1
        except SizeCapError:
            pass
    assert checked


def test_least_code_leaves_give_the_automorphism_orbits(rng):
    """Each ordering the labeller returns has the least code, and the
    union of the twin groups of the vertices the orderings put at one
    position is a vertex orbit of Aut(g), as networkx finds it."""
    graphs = [random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.5, 0.8)))
              for _ in range(300)]
    graphs += [graph_of_nx(h) for h in (nx.cycle_graph(8), nx.hypercube_graph(3),
                                        nx.petersen_graph(), nx.star_graph(6),
                                        nx.complete_multipartite_graph(3, 3, 2))]
    for g in graphs:
        code, aut, orders = _canonical_search(g)
        for order in orders:
            assert graph_to_code(Graph(tuple(
                sum(1 << p for p, w in enumerate(order) if g.adj[u] >> w & 1)
                for u in order))) == code
        twins = [sum(1 << w for w in range(g.n)
                     if g.adj[w] & ~(1 << u) == g.adj[u] & ~(1 << w)) for u in range(g.n)]
        h = nx_of(g)
        autos = list(nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
        assert len(autos) == aut
        for p, u in enumerate(orders[0]):
            orbit = 0
            for order in orders:
                orbit |= twins[order[p]]
            assert orbit == sum(1 << w for w in {a[u] for a in autos}), (g.adj, u)
