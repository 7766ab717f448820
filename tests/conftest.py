"""Shared brute-force oracles, deliberately independent of the package's
bitset code paths: plain dict/list BFS, pair-by-pair sums, a bit-by-bit
graph6 decoder, the labelled walk over every code, networkx for reference
graph6 and isomorphism."""

import collections
import itertools
import random
from fractions import Fraction
from math import factorial, prod

import networkx as nx
import pytest

from vklab import Graph, Graph6ParseError, IndexKind, SizeCapError
from vklab.graphs import (_CANONICAL_BUDGET, _row_major_pairs, code_to_adj, connected_mask,
                          from_edges, pair_count)


def nx_of(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def graph_of_nx(h: nx.Graph) -> Graph:
    nodes = sorted(h.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return from_edges(len(nodes), [(index[u], index[v]) for u, v in h.edges()])


def reference_parse_graph6(text: str) -> Graph:
    """Bit-by-bit graph6 decoder: every body bit unpacked into a list, rows
    filled pair by pair and checked by the public `Graph` constructor.
    Raises Graph6ParseError with the package decoder's messages."""
    line = text.strip(" \t\r\n")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise Graph6ParseError("empty line")
    if line[0] == "~":
        if len(line) >= 2 and line[1] == "~":
            raise Graph6ParseError("graphs beyond 64 vertices are unsupported")
        if len(line) < 4:
            raise Graph6ParseError("truncated extended vertex count")
        n = 0
        for ch in line[1:4]:
            val = ord(ch) - 63
            if not 0 <= val <= 63:
                raise Graph6ParseError(f"invalid character {ch!r}")
            n = n << 6 | val
        pos = 4
    else:
        n = ord(line[0]) - 63
        if not 0 <= n <= 63:
            raise Graph6ParseError(f"invalid character {line[0]!r}")
        pos = 1
    if not 1 <= n <= 64:
        raise Graph6ParseError(f"vertex count {n} outside 1..64")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = line[pos:]
    if len(body) != nchars:
        raise Graph6ParseError(
            f"expected {nchars} data characters for n={n}, got {len(body)}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6ParseError(f"invalid character {ch!r}")
        bits.extend((val >> shift & 1) for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6ParseError("nonzero padding bits")
    adj = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return Graph(tuple(adj))


def graph_to_code(g: Graph) -> int:
    """Pack the upper triangle row-major: bit 0 is pair (0,1), then (0,2), ..."""
    code = 0
    bit = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] >> v & 1:
                code |= 1 << bit
            bit += 1
    return code


def enumerate_graphs(n: int, connected_only: bool = False):
    """Yield every labelled simple graph on n vertices exactly once.

    Walks all upper-triangle bit patterns in numeric order, so the stream is
    deterministic: the labelled-walk oracle the catalogue scans are checked
    against.
    """
    full = (1 << n) - 1
    for code in range(1 << pair_count(n)):
        adj = code_to_adj(code, n)
        if connected_only and connected_mask(adj) != full:
            continue
        yield Graph(tuple(adj))


def reference_refinement_classes(g: Graph) -> list[list[int]]:
    """Partition vertices by iterated degree refinement (1-WL colours), on
    plain lists: each round recolours every vertex by the rank of (its
    colour, its sorted neighbour colours), until the colours repeat. Each
    class is listed in increasing vertex order."""
    colors = list(g.degrees())
    while True:
        keys = []
        for u in range(g.n):
            neigh = sorted(colors[v] for v in range(g.n) if g.adj[u] >> v & 1)
            keys.append((colors[u], tuple(neigh)))
        remap = {key: i for i, key in enumerate(sorted(set(keys)))}
        new_colors = [remap[k] for k in keys]
        if new_colors == colors:
            break
        colors = new_colors
    classes: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for u, c in enumerate(colors):
        classes[c].append(u)
    return classes


def reference_canonical_search(g: Graph) -> tuple[int, int]:
    """(code bits, |Aut(g)|) by the exhaustive lex-min search over every
    refinement-admissible ordering, twins included: the minimising
    orderings form one coset of Aut(g), so their count is |Aut(g)|.
    It visits every ordering, so it refuses a graph with more of them than
    the package's live-node budget."""
    classes = reference_refinement_classes(g)
    space = prod(factorial(len(c)) for c in classes)
    if space > _CANONICAL_BUDGET:
        raise SizeCapError(
            f"reference search would visit {space} orderings, over the budget "
            f"{_CANONICAL_BUDGET} (n={g.n})")
    adj = g.adj
    n = g.n
    pairs = _row_major_pairs(n)
    best = None
    aut = 0
    # packing MSB-first makes integer < equal to lexicographic bit order
    for parts in itertools.product(*[itertools.permutations(c) for c in classes]):
        order = [v for part in parts for v in part]
        bits = 0
        for u, v in pairs:
            bits = bits << 1 | (adj[order[u]] >> order[v] & 1)
        if best is None or bits < best:
            best, aut = bits, 1
        elif bits == best:
            aut += 1
    total = len(pairs)
    code = 0
    for i in range(total):
        if best >> (total - 1 - i) & 1:
            code |= 1 << i
    return code, aut


def reference_pretest_rejects(g: Graph) -> bool:
    """The catalogue pre-test by its definition, on neighbour lists: whether
    some vertex other than the last has a smaller (degree, sum of neighbour
    degrees) than the last and is not a cut vertex (deleting it leaves
    every other vertex reachable from the last)."""
    neigh = [[v for v in range(g.n) if g.adj[u] >> v & 1] for u in range(g.n)]
    key = [(len(neigh[u]), sum(len(neigh[v]) for v in neigh[u])) for u in range(g.n)]
    last = g.n - 1

    def reachable_without(w):
        seen = {last}
        stack = [last]
        while stack:
            for v in neigh[stack.pop()]:
                if v != w and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == g.n - 1

    return any(key[w] < key[last] and reachable_without(w) for w in range(last))


def brute_distances(g: Graph):
    """Queue BFS over explicit neighbour lists."""
    neigh = {u: [] for u in range(g.n)}
    for u, v in g.edges():
        neigh[u].append(v)
        neigh[v].append(u)
    dist = [[None] * g.n for _ in range(g.n)]
    for s in range(g.n):
        dist[s][s] = 0
        q = collections.deque([s])
        while q:
            u = q.popleft()
            for v in neigh[u]:
                if dist[s][v] is None:
                    dist[s][v] = dist[s][u] + 1
                    q.append(v)
    return dist


def brute_index(kind: IndexKind, g: Graph):
    """Pair-by-pair / vertex-by-vertex evaluation with no grouping tricks."""
    deg = g.degrees()
    if kind is IndexKind.ZAGREB_M1:
        return sum(d * d for d in deg)
    if kind is IndexKind.ZAGREB_M2:
        return sum(deg[u] * deg[v] for u, v in g.edges())
    if kind is IndexKind.MULT_ZAGREB_PI1:
        out = 1
        for d in deg:
            out *= d * d
        return out
    if kind is IndexKind.MULT_ZAGREB_PI2:
        out = 1
        for d in deg:
            out *= d ** d
        return out
    dist = brute_distances(g)
    assert all(dist[u][v] is not None for u in range(g.n) for v in range(g.n))
    trans = [sum(row) for row in dist]
    ecc = [max(row) for row in dist]
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    if kind is IndexKind.WIENER:
        return sum(dist[u][v] for u, v in pairs)
    if kind is IndexKind.HARARY:
        return sum(Fraction(1, dist[u][v]) for u, v in pairs)
    if kind is IndexKind.RDD:
        return sum(Fraction(deg[u] + deg[v], dist[u][v]) for u, v in pairs)
    if kind is IndexKind.ECC_DIST_SUM:
        return sum(ecc[u] * trans[u] for u in range(g.n))
    if kind is IndexKind.CONN_ECC:
        return sum(Fraction(deg[u], ecc[u]) for u in range(g.n))
    if kind is IndexKind.ADJ_ECC_DIST_SUM:
        return sum(Fraction(ecc[u] * trans[u], deg[u]) for u in range(g.n))
    raise AssertionError(kind)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def random_connected(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if nx.is_connected(nx_of(g)):
            return g


@pytest.fixture
def rng():
    return random.Random(20240817)
