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
                   canonical_form, canonical_graph, complement, complete_graph,
                   complete_multipartite, cycle_graph, empty_graph, induced_subgraph,
                   is_connected, is_isomorphic, join, join_family_graph, parse_graph6,
                   path_graph, permute, to_graph6)
from vklab.graphs import (_canonical_search, _refinement_classes, _twin_groups, code_to_graph,
                          connected_mask, from_edges, pair_count)
from vklab.search import (_lighter_non_cut_vertex, _neighbourhoods, _partitions_at_most,
                          catalogue)

from conftest import (graph_of_nx, graph_to_code, nx_of, random_graph,
                      reference_canonical_search, reference_parse_graph6,
                      reference_refinement_classes)


def test_complete_and_empty_edge_counts():
    assert complete_graph(4).edge_count() == 6
    assert empty_graph(5).edge_count() == 0
    assert is_isomorphic(complete_graph(2), path_graph(2))


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_vertex_cap_boundaries(n):
    assert complete_graph(n).n == n


@pytest.mark.parametrize("n", [0, 65, -1])
def test_vertex_cap_violations(n):
    with pytest.raises(GraphSizeError):
        empty_graph(n)


def test_graph_is_immutable_value():
    g = cycle_graph(5)
    with pytest.raises(AttributeError):
        g.n = 6
    assert g == cycle_graph(5)
    assert hash(g) == hash(cycle_graph(5))
    assert pickle.loads(pickle.dumps(g)) == g  # rebuilt by Graph(adj)


def test_adjacency_validation():
    with pytest.raises(ValueError):
        Graph((1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph((2, 0, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph((1 | 2, 1))  # self-loop at 0


def test_complement_of_complete_is_empty():
    for n in (2, 3, 6):
        assert complement(complete_graph(n)) == empty_graph(n)


def test_complement_involution_random(rng):
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 16))
        assert complement(complement(g)) == g


def test_complement_k23_is_k2_union_k3():
    k23 = complete_multipartite([2, 3])
    cmpl = complement(k23)
    assert cmpl.edge_count() == 4
    comps = list(nx.connected_components(nx_of(cmpl)))
    assert sorted(len(c) for c in comps) == [2, 3]
    assert not is_connected(cmpl)


def test_join_against_complete_bipartite():
    assert is_isomorphic(join(empty_graph(2), empty_graph(3)),
                         complete_multipartite([2, 3]))
    star = join(complete_graph(1), empty_graph(4))
    assert sorted(star.degrees()) == [1, 1, 1, 1, 4]
    g = join(complete_graph(2), join(empty_graph(2), empty_graph(2)))
    assert g.n == 6 and g.edge_count() == 13


def test_join_edge_count_law(rng):
    for _ in range(30):
        g1 = random_graph(rng, rng.randint(1, 8))
        g2 = random_graph(rng, rng.randint(1, 8))
        j = join(g1, g2)
        assert j.edge_count() == g1.edge_count() + g2.edge_count() + g1.n * g2.n
        # vertex order: g1 first
        assert all(j.has_edge(u, v) == g1.has_edge(u, v)
                   for u in range(g1.n) for v in range(u + 1, g1.n))


def test_join_size_overflow():
    with pytest.raises(GraphSizeError):
        join(complete_graph(40), complete_graph(30))


def test_complete_multipartite_examples():
    assert is_isomorphic(complete_multipartite([1, 1, 1]), complete_graph(3))
    assert complete_multipartite([2, 2, 2]).edge_count() == 12
    with pytest.raises(ValueError):
        complete_multipartite([])


def test_complete_multipartite_equals_join_fold(rng):
    for _ in range(20):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        g = complete_multipartite(sizes)
        folded = empty_graph(sizes[0])
        for s in sizes[1:]:
            folded = join(folded, empty_graph(s))
        assert g == folded  # bit-exact


def test_induced_subgraph():
    assert is_isomorphic(induced_subgraph(complete_graph(5), [0, 2, 4]),
                         complete_graph(3))
    g = cycle_graph(5)
    assert induced_subgraph(g, range(5)) == g
    assert is_isomorphic(induced_subgraph(g, [0, 1, 2]), path_graph(3))
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 7])


def test_is_connected():
    assert is_connected(complete_graph(4))
    assert not is_connected(empty_graph(3))
    assert not is_connected(complement(complete_multipartite([2, 3])))


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
    g = path_graph(3)
    g2 = add_edge(g, 0, 2)
    assert g.edge_count() == 2 and g2.edge_count() == 3
    with pytest.raises(ValueError):
        add_edge(g2, 0, 2)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def test_graph6_known_vectors():
    assert is_isomorphic(parse_graph6("A_"), complete_graph(2))
    assert parse_graph6("A?") == empty_graph(2)
    assert parse_graph6("D~{") == complete_graph(5)


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
    assert is_isomorphic(cycle_graph(4), complete_multipartite([2, 2]))


def test_canonical_distinguishes_k3_p3():
    assert not is_isomorphic(complete_graph(3), path_graph(3))


def test_canonical_counts_on_four_vertices():
    codes = {canonical_form(code_to_graph(c, 4)) for c in range(1 << pair_count(4))}
    assert len(codes) == 11


def test_canonical_permutation_invariance(rng):
    for _ in range(100):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permute(g, perm))


def test_canonical_agrees_with_networkx(rng):
    # equal codes <=> isomorphic, cross-checked against the VF2 matcher
    graphs = [random_graph(rng, 6) for _ in range(40)]
    for a in graphs[:12]:
        for b in graphs[:12]:
            ref = nx.is_isomorphic(nx_of(a), nx_of(b))
            assert is_isomorphic(a, b) == ref


def test_canonical_graph_is_isomorphic_relabeling(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7))
        cg = canonical_graph(g)
        assert is_isomorphic(g, cg)
        assert canonical_form(cg) == canonical_form(g)


def test_permute_roundtrip(rng):
    g = random_graph(rng, 7)
    perm = [3, 1, 4, 0, 6, 2, 5]
    inverse = [perm.index(i) for i in range(7)]
    assert permute(permute(g, perm), inverse) == g


def _shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute(g, perm)


def _join_family(nmin, nmax):
    """K_m joined onto K(sizes) for every m >= 1 and every partition `sizes`
    of n - m >= 2 (the join family of every class on nmin..nmax vertices)."""
    return [join_family_graph(m, sizes) for n in range(nmin, nmax + 1)
            for m in range(1, n - 1) for sizes in _partitions_at_most(n - m, n - m)]


def test_canonical_search_matches_exhaustive_reference(rng):
    graphs = []
    for n in range(2, 7):  # every one-vertex extension the catalogue build tries
        for parent in catalogue(n - 1):
            for nbhd in range(1, 1 << (n - 1)):
                adj = [row | 1 << (n - 1) if nbhd >> u & 1 else row
                       for u, row in enumerate(parent.graph.adj)]
                graphs.append(_shuffled(rng, Graph((*adj, nbhd))))
    graphs += [random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
               for _ in range(200)]
    graphs += [complete_graph(8), complete_multipartite([4, 4]),
               complete_multipartite([3, 3, 2])]
    graphs += set(_join_family(3, 8))
    for g in graphs:
        assert _canonical_search(g) == reference_canonical_search(g), g.adj


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_bitset_refinement_matches_the_list_reference(data):
    """The bitset refinement gives the list reference's ordered classes,
    and relabelling a graph relabels its classes."""
    n = data.draw(st.integers(1, 10))
    p = data.draw(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)))
    g = random_graph(data.draw(st.randoms(use_true_random=False)), n, p)
    perm = data.draw(st.permutations(range(n)))
    h = permute(g, perm)
    classes = _refinement_classes(h)
    assert classes == [sum(1 << u for u in c) for c in reference_refinement_classes(h)]
    assert classes == [sum(1 << perm[u] for u in range(n) if c >> u & 1)
                       for c in _refinement_classes(g)]


def test_aut_of_twin_free_symmetric_graphs_matches_networkx(rng):
    # one refinement class and no twins: the search keeps the most nodes alive
    moebius = from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
    graphs = (cycle_graph(7), cycle_graph(8), graph_of_nx(nx.hypercube_graph(3)), moebius)
    auts = []
    for g in graphs:
        assert _twin_groups(g.adj) == [] and len(_refinement_classes(g)) == 1
        h = nx_of(g)
        auts.append(sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter()))
        code, aut = _canonical_search(g)
        assert aut == auts[-1]
        assert _canonical_search(_shuffled(rng, g)) == (code, aut)
    assert auts == [14, 16, 48, 16]


def _multipartite_aut(sizes) -> int:
    return (prod(factorial(s) for s in sizes)
            * prod(factorial(c) for c in Counter(sizes).values()))


def test_canonical_form_past_the_old_budget(rng):
    # K9, K(3,3,3) and the join-family graphs on 9..12 vertices have more
    # than the budget's 50,000 refinement-admissible orderings, but the
    # search keeps one vertex per twin group and so few nodes alive
    for g in (complete_graph(9), complete_multipartite([3, 3, 3])):
        with pytest.raises(SizeCapError):
            reference_canonical_search(g)
    graphs = [complete_graph(9), complete_multipartite([3, 3, 3]), *_join_family(9, 12)]
    by_degrees = {}
    for g in graphs:
        sizes = sorted(Counter(g.adj).values())  # K_m counts as m parts of size 1
        code, aut = _canonical_search(g)
        assert aut == _multipartite_aut(sizes)
        copy = _shuffled(rng, g)
        assert canonical_form(copy).bits == code
        by_degrees.setdefault(tuple(sorted(g.degrees())), []).append(((g.n, code), copy))
    # a complete multipartite graph is fixed by its degree sequence, and
    # K_m with singleton parts is one larger clique: one code per sequence
    for same in by_degrees.values():
        assert len({code for code, _ in same}) == 1
        a, b = same[0][1], same[-1][1]
        assert is_isomorphic(a, b) and nx.is_isomorphic(nx_of(a), nx_of(b))
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
    # the children the n = 9 catalogue build canonicalises (twin-prefix
    # neighbourhoods that pass the pre-test), from a seeded sample of n = 8
    # parents: |Aut| against networkx, codes against the exhaustive
    # reference wherever it takes them
    checked = 0
    for parent in rng.sample(catalogue(8), 12):
        for nbhd in _neighbourhoods(parent.graph.adj):
            adj = [row | 1 << 8 if nbhd >> u & 1 else row for u, row in enumerate(parent.graph.adj)]
            adj.append(nbhd)
            if _lighter_non_cut_vertex(adj):
                continue
            g = Graph(tuple(adj))
            code, aut = _canonical_search(g)
            h = nx_of(g)
            assert aut == sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
            assert _canonical_search(_shuffled(rng, g)) == (code, aut)
            try:
                assert reference_canonical_search(g) == (code, aut)
                checked += 1
            except SizeCapError:
                pass
    assert checked
