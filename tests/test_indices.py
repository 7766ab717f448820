"""Index evaluators: worked examples, dual-form identities, exactness,
monotonicity directions, and label invariance."""

from fractions import Fraction
from math import lcm

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vklab import (ALL_KINDS, DisconnectedGraphError, Direction, GraphSizeError,
                   IndexKind, InvalidParamsError, compute_metrics, direction, evaluate,
                   from_edges)
from vklab.indices import DEGREE_ONLY, INTEGER_VALUED, exact, kernel, value_scale

from conftest import brute_index, graph_of_nx, join_of, nx_of, random_connected

K222_JOIN = join_of(2, [2, 2])
STAR4 = join_of(1, [3])
K5, K6, K7 = (graph_of_nx(nx.complete_graph(n)) for n in (5, 6, 7))
K123 = graph_of_nx(nx.complete_multipartite_graph(1, 2, 3))
P3 = graph_of_nx(nx.path_graph(3))

# (kind, graph, expected) worked examples
EXAMPLES = [
    (IndexKind.WIENER, K6, 15),
    (IndexKind.WIENER, K222_JOIN, 17),
    (IndexKind.WIENER, K123, 19),
    (IndexKind.HARARY, K5, 10),
    (IndexKind.HARARY, P3, Fraction(5, 2)),
    (IndexKind.HARARY, K222_JOIN, 14),
    (IndexKind.RDD, K5, 5 * 16),
    (IndexKind.RDD, K222_JOIN, 122),
    (IndexKind.RDD, P3, 7),
    (IndexKind.ECC_DIST_SUM, K7, 42),
    (IndexKind.ECC_DIST_SUM, K222_JOIN, 58),
    (IndexKind.ECC_DIST_SUM, P3, 14),
    (IndexKind.CONN_ECC, K5, 20),
    (IndexKind.CONN_ECC, K222_JOIN, 18),
    (IndexKind.CONN_ECC, P3, 3),
    (IndexKind.ADJ_ECC_DIST_SUM, K5, 5),
    (IndexKind.ADJ_ECC_DIST_SUM, K222_JOIN, 14),
    (IndexKind.ADJ_ECC_DIST_SUM, STAR4, 31),
    (IndexKind.ZAGREB_M1, K5, 80),
    (IndexKind.ZAGREB_M1, K222_JOIN, 114),
    (IndexKind.ZAGREB_M1, P3, 6),
    (IndexKind.ZAGREB_M2, K5, 160),
    (IndexKind.ZAGREB_M2, K222_JOIN, 249),
    (IndexKind.ZAGREB_M2, P3, 4),
    (IndexKind.MULT_ZAGREB_PI1, K5, 4 ** 10),
    (IndexKind.MULT_ZAGREB_PI1, K222_JOIN, 40_960_000),
    (IndexKind.MULT_ZAGREB_PI1, P3, 4),
    (IndexKind.MULT_ZAGREB_PI2, K5, 4 ** 20),
    (IndexKind.MULT_ZAGREB_PI2, K222_JOIN, 5 ** 10 * 2 ** 32),
    (IndexKind.MULT_ZAGREB_PI2, P3, 4),
]


@pytest.mark.parametrize("kind,graph,expected", EXAMPLES)
def test_worked_examples(kind, graph, expected):
    assert evaluate(kind, graph) == expected


def test_k2_all_indices():
    g = graph_of_nx(nx.complete_graph(2))
    expected = {
        IndexKind.WIENER: 1, IndexKind.HARARY: 1, IndexKind.RDD: 2,
        IndexKind.ECC_DIST_SUM: 2, IndexKind.CONN_ECC: 2,
        IndexKind.ADJ_ECC_DIST_SUM: 2, IndexKind.ZAGREB_M1: 2,
        IndexKind.ZAGREB_M2: 1, IndexKind.MULT_ZAGREB_PI1: 1,
        IndexKind.MULT_ZAGREB_PI2: 1,
    }
    for kind, val in expected.items():
        assert evaluate(kind, g) == val


def test_direction_registry():
    decreasing = {IndexKind.WIENER, IndexKind.ECC_DIST_SUM, IndexKind.ADJ_ECC_DIST_SUM}
    for kind in ALL_KINDS:
        want = Direction.DECREASING if kind in decreasing else Direction.INCREASING
        assert direction(kind) is want


def test_matches_brute_oracle(rng):
    for _ in range(50):
        g = random_connected(rng, rng.randint(2, 9))
        for kind in ALL_KINDS:
            assert evaluate(kind, g) == brute_index(kind, g)


def test_dual_forms(rng):
    """Edge forms equal vertex forms: M1, Pi2 and the connective eccentricity."""
    for _ in range(1000):
        g = random_connected(rng, rng.randint(2, 8))
        m = compute_metrics(g)
        deg, ecc = m.degree, m.ecc
        edges = list(nx_of(g).edges())
        assert evaluate(IndexKind.ZAGREB_M1, g, m) == sum(
            deg[u] + deg[v] for u, v in edges)
        pi2_edge = 1
        for u, v in edges:
            pi2_edge *= deg[u] * deg[v]
        assert evaluate(IndexKind.MULT_ZAGREB_PI2, g, m) == pi2_edge
        assert evaluate(IndexKind.CONN_ECC, g, m) == sum(
            (Fraction(1, ecc[u]) + Fraction(1, ecc[v]) for u, v in edges),
            Fraction(0))


def test_bounds_with_equality_iff_complete(rng):
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_connected(rng, n)
        pairs = n * (n - 1) // 2
        w = evaluate(IndexKind.WIENER, g)
        h = evaluate(IndexKind.HARARY, g)
        assert w >= pairs and h <= pairs
        is_complete = g.edge_count() == pairs
        assert (w == pairs) == is_complete
        assert (h == pairs) == is_complete


def test_exactness_types(rng):
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 8))
        for kind in ALL_KINDS:
            val = evaluate(kind, g)
            if kind in INTEGER_VALUED:
                assert isinstance(val, int)
            else:
                assert isinstance(val, Fraction) and val.denominator >= 1


def test_each_kind_has_one_integer_kernel(rng):
    """The kernel is the value of an integer kind and lcm(1..n - 1) times
    the value of a rational one, against the pair-by-pair oracle; `exact`
    turns it back into an int or a Fraction."""
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_connected(rng, n)
        assert value_scale(n) == lcm(*range(1, n))
        for kind, scaled in zip(ALL_KINDS, kernel(ALL_KINDS)(g), strict=True):
            scale = 1 if kind in INTEGER_VALUED else value_scale(n)
            assert isinstance(scaled, int) and scaled == brute_index(kind, g) * scale
            value = exact(kind, scaled, n)
            assert value == brute_index(kind, g)
            assert isinstance(value, int if kind in INTEGER_VALUED else Fraction)


def _scaled_brute(kind: IndexKind, g):
    return brute_index(kind, g) * (1 if kind in INTEGER_VALUED else value_scale(g.n))


_KIND_LISTS = st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=len(ALL_KINDS),
                       unique=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.randoms(use_true_random=False), _KIND_LISTS)
def test_kernel_of_any_kinds_is_their_scaled_values_in_order(n, rnd, kinds):
    """kernel(kinds) on a connected graph is each requested kind's scaled
    value from the pair-by-pair oracle, in the order asked."""
    g = random_connected(rnd, n)
    assert kernel(kinds)(g) == [_scaled_brute(kind, g) for kind in kinds]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.randoms(use_true_random=False),
       st.lists(st.sampled_from(sorted(DEGREE_ONLY, key=ALL_KINDS.index)), min_size=1,
                unique=True))
def test_degree_only_kernel_takes_disconnected_graphs(n, rnd, kinds):
    """Degree-only kinds read degrees alone, so a graph with an isolated
    vertex is measured; one distance kind among them makes it an error."""
    edges = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1) if rnd.random() < 0.5]
    g = from_edges(n, edges)  # vertex n - 1 is isolated
    assert kernel(kinds)(g) == [brute_index(kind, g) for kind in kinds]
    with pytest.raises(DisconnectedGraphError):
        kernel([*kinds, IndexKind.HARARY])(g)


def test_kernel_refuses_bad_kinds_and_single_vertex_graphs():
    for kinds, message in [((), "no index kind"), ((IndexKind.WIENER, "harary"), "'harary'"),
                           (("wiener",), "'wiener'"), ((None,), "None")]:
        with pytest.raises(InvalidParamsError, match=message):
            kernel(kinds)
    for kinds in ((IndexKind.WIENER,), (IndexKind.ZAGREB_M1,)):
        with pytest.raises(GraphSizeError, match="n >= 2 only, got n=1"):
            kernel(kinds)(graph_of_nx(nx.complete_graph(1)))


def test_label_invariance(rng):
    for _ in range(30):
        n = rng.randint(2, 8)
        g = random_connected(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = graph_of_nx(nx.relabel_nodes(nx_of(g), dict(enumerate(perm))))
        for kind in ALL_KINDS:
            assert evaluate(kind, g) == evaluate(kind, h)


def test_degree_only_kinds_accept_disconnected():
    g = graph_of_nx(nx.empty_graph(3))
    assert evaluate(IndexKind.MULT_ZAGREB_PI1, g) == 0
    assert evaluate(IndexKind.MULT_ZAGREB_PI2, g) == 1  # 0^0 convention
    assert evaluate(IndexKind.ZAGREB_M1, g) == 0
    assert evaluate(IndexKind.ZAGREB_M2, g) == 0
    for kind in ALL_KINDS:
        if kind not in (IndexKind.ZAGREB_M1, IndexKind.ZAGREB_M2,
                        IndexKind.MULT_ZAGREB_PI1, IndexKind.MULT_ZAGREB_PI2):
            with pytest.raises(DisconnectedGraphError):
                evaluate(kind, g)


def test_single_vertex_rejected():
    g = graph_of_nx(nx.complete_graph(1))
    for kind in ALL_KINDS:
        with pytest.raises(ValueError):
            evaluate(kind, g)


def test_shared_metrics_path_agrees(rng):
    g = random_connected(rng, 7)
    m = compute_metrics(g)
    for kind in ALL_KINDS:
        assert evaluate(kind, g, m) == evaluate(kind, g)
