"""Simple undirected graphs on at most 64 vertices.

Vertices are 0..n-1 and each neighbourhood is a single machine-word bitset,
so edge tests and neighbourhood sets are plain integer arithmetic. Graphs
are immutable values: every builder returns a new graph, and two graphs
compare equal exactly when they have identical labelled adjacency.

Also provides graph6 text I/O and a canonical form for small graphs: the
least code over the relabelings admitted by colour refinement, found row
by row by a branch and bound over bitset cells that tries one vertex per
twin group (vertices with equal open or closed neighbourhoods). It refuses
a graph only when the search would hold too many nodes at once, which no
graph with n <= 9 does; K_n and the join-family graphs up to 12 vertices
are accepted too. The graph6 codec is table-driven: a body is translated
to its bit string by one `str.translate`, a cached per-n `itemgetter` picks
all n adjacency rows out of it in one pass, and one `int(..., 2)` reads
them as n-bit fields of a single integer.

`Graph(adj)` takes one neighbour bitset per vertex, so n is `len(adj)`,
and validates the rows: vertex range, no self-loops, symmetry.
`_symmetric_graph(adj)` skips those checks and may be called only with
rows that are symmetric, loop-free and inside 0..n-1 by construction, for
1 <= n <= 64: the graph6 decoder (its table reads pairs (u, v) and
(v, u) from one bit and the diagonal from a constant '0'), `code_to_graph`
(each code bit sets both ends of one pair u < v < n), the catalogue's
vertex extension in `vklab.search` (decoded parents and their children) and
`vklab.extremal.join_family_graph` (each row is the full vertex set less
the vertex's own clique bit or its own part, which contains it). Rows from
anywhere else, including unpickling, go through `Graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import itemgetter

from .errors import Graph6ParseError, GraphSizeError, SizeCapError

MAX_VERTICES = 64

# The most live nodes the canonical search may hold at one depth. No graph
# with n <= 9 comes near it: the widest live set over every 9-vertex graph
# is 72 nodes (the 3x3 rook's graph), so the n <= 9 guarantee is unconditional.
_CANONICAL_BUDGET = 50_000


class Graph:
    """Immutable simple graph: vertex count plus per-vertex neighbour bitsets."""

    __slots__ = ("n", "adj")

    def __init__(self, adj: tuple[int, ...]):
        n = _order(len(adj))
        full = (1 << n) - 1
        for u, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row {u} references vertices >= {n}")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
        for u in range(n):
            for v in range(u + 1, n):
                if (adj[u] >> v & 1) != (adj[v] >> u & 1):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        adj = tuple(adj)
        _SET_N(self, n)
        _SET_ADJ(self, adj)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __reduce__(self):
        # rebuild through __init__; the default slot restore hits __setattr__
        return Graph, (self.adj,)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def non_edges(self):
        """Yield non-adjacent pairs (u, v) with u < v."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self.adj[u] >> v & 1:
                    yield (u, v)


# slot setters that bypass the immutability guard in Graph.__setattr__
_SET_N, _SET_ADJ = Graph.n.__set__, Graph.adj.__set__


def _symmetric_graph(adj: tuple[int, ...]) -> Graph:
    """A Graph from rows that are valid by construction, without `Graph`'s
    O(n^2) checks; see the module docstring for who may call it."""
    g = object.__new__(Graph)
    _SET_N(g, len(adj))
    _SET_ADJ(g, adj)
    return g


def _order(n: int) -> int:
    """n itself, once it is checked to be a supported vertex count."""
    if not 1 <= n <= MAX_VERTICES:
        raise GraphSizeError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    return n


def from_edges(n: int, edges) -> Graph:
    """Build a graph from an edge list; duplicate edges are harmless."""
    adj = [0] * _order(n)
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return g + uv as a new graph (matching the G + e notation)."""
    if u == v:
        raise ValueError("cannot add a self-loop")
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) already present")
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(tuple(adj))


def is_connected(g: Graph) -> bool:
    """BFS reachability from vertex 0 (single-vertex graphs count as connected)."""
    return connected_mask(g.adj) == (1 << g.n) - 1


def connected_mask(adj, seen: int = 1, keep: int = -1) -> int:
    """Bitset of vertices reachable from the vertices of `seen` (vertex 0 by
    default) through vertices of `keep` (all by default); adjacency rows
    given directly."""
    frontier = seen
    while frontier:
        nxt = 0
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            nxt |= adj[v]
        frontier = nxt & keep & ~seen
        seen |= frontier
    return seen


# ---------------------------------------------------------------------------
# labelled upper-triangle codes (row-major; used by the enumeration harness)
# ---------------------------------------------------------------------------

def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def code_to_adj(code: int, n: int) -> list[int]:
    """Unpack a row-major upper-triangle code into adjacency bitset rows."""
    adj = [0] * n
    pairs = _row_major_pairs(n)
    while code:
        b = (code & -code).bit_length() - 1
        code &= code - 1
        u, v = pairs[b]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _adj_code(adj) -> int:
    """The row-major upper-triangle code of adjacency rows `adj`, the code
    `code_to_adj` unpacks: row u's pairs (u, v), v > u, are its bits
    u + 1.. shifted to where row u's block of the code starts."""
    bits = start = 0
    last = len(adj) - 1
    for u, row in enumerate(adj):
        bits |= row >> (u + 1) << start
        start += last - u
    return bits


def code_to_graph(code: int, n: int) -> Graph:
    return _symmetric_graph(tuple(code_to_adj(code, _order(n))))


@cache
def _row_major_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (u, v), u < v, in row-major code bit order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


# ---------------------------------------------------------------------------
# graph6 (printable text encoding; column-major upper triangle)
# ---------------------------------------------------------------------------

# graph6 body character -> its six bits, most significant first
_GRAPH6_BITS = str.maketrans({chr(63 + v): format(v, "06b") for v in range(64)})


@cache
def _graph6_tables(n: int) -> tuple[itemgetter, tuple[int, ...]]:
    """The graph6 position tables for order n: (decode getter, encode order).

    Pair (u, v), u < v, is bit v(v-1)/2 + u of the body. The decode getter
    picks from the decoded body, with one '0' appended, the adjacency rows
    0..n-1 as binary strings written one after another, each from vertex
    n-1 down to vertex 0: (u, v) and (v, u) read one shared position and the
    diagonal reads the appended '0'. The encode order runs the other way:
    for each body position, an index into those concatenated row strings,
    with the padding reading a '0' appended after them.
    """
    sentinel = 6 * ((pair_count(n) + 5) // 6)
    flat = [sentinel if u == v else max(u, v) * (max(u, v) - 1) // 2 + min(u, v)
            for u in range(n) for v in range(n - 1, -1, -1)]
    order = [n * n] * sentinel
    for i, pos in enumerate(flat):
        if pos != sentinel:
            order[pos] = i
    return itemgetter(*flat), tuple(order)


def to_graph6(g: Graph) -> str:
    """Encode as one graph6 line (no header, no trailing newline)."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        # 18-bit extended order for 63 <= n <= 258047; we only ever need <= 64
        head = "~" + "".join(chr(63 + (n >> shift & 0x3F)) for shift in (12, 6, 0))
    _, order = _graph6_tables(n)
    rows = "".join([format(row, "b").zfill(n) for row in g.adj]) + "0"
    bits = "".join([rows[i] for i in order])
    return head + "".join([chr(63 + int(bits[i:i + 6], 2))
                           for i in range(0, len(bits), 6)])


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line; strict about length and character range.
    Only spaces, tabs, CR and LF around the line are trimmed."""
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
        head, pos = line[1:4], 4
    else:
        head, pos = line[0], 1
    n = 0
    for ch in head:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6ParseError(f"invalid character {ch!r}")
        n = n << 6 | val
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6ParseError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    nbits = pair_count(n)
    nchars = (nbits + 5) // 6
    body = line[pos:]
    if len(body) != nchars:
        raise Graph6ParseError(
            f"expected {nchars} data characters for n={n}, got {len(body)}")
    # characters outside '?'..'~' are left as they are, one for six
    bits = body.translate(_GRAPH6_BITS)
    if len(bits) != 6 * nchars:
        bad = next(ch for ch in body if not "?" <= ch <= "~")
        raise Graph6ParseError(f"invalid character {bad!r}")
    if "1" in bits[nbits:]:
        raise Graph6ParseError("nonzero padding bits")
    getter, _ = _graph6_tables(n)
    rows = int("".join(getter(bits + "0")), 2)
    mask = (1 << n) - 1
    return _symmetric_graph(tuple([rows >> shift & mask
                                   for shift in range(n * n - n, -1, -n)]))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalCode:
    """Label-independent certificate: equal codes <=> isomorphic graphs.

    `bits` is the lexicographically smallest row-major upper-triangle code
    over all relabelings consistent with the colour refinement classes.
    """

    n: int
    bits: int


def _refinement_classes(g: Graph) -> list[int]:
    """Partition vertices by iterated degree refinement (1-WL colours), as
    an ordered list of class bitsets.

    The classes start as the degree classes in increasing degree. Each
    round splits every class by the key (|N(u) & C| for each class C of the
    round), parts in decreasing key order, until no class splits. Vertices
    of one class have equal degree, so this orders the parts as (colour,
    sorted neighbour colours) would, and the ordered list is invariant
    under relabeling.
    """
    adj = g.adj
    by_degree: dict = {}
    for u, row in enumerate(adj):
        by_degree[row.bit_count()] = by_degree.get(row.bit_count(), 0) | 1 << u
    classes = [by_degree[d] for d in sorted(by_degree)]
    while True:
        refined = []
        for c in classes:
            if not c & (c - 1):  # one vertex
                refined.append(c)
                continue
            parts: dict = {}
            while c:
                bit = c & -c
                c ^= bit
                row = adj[bit.bit_length() - 1]
                key = tuple([(row & d).bit_count() for d in classes])
                parts[key] = parts.get(key, 0) | bit
            refined += [parts[key] for key in sorted(parts, reverse=True)]
        if len(refined) == len(classes):
            return classes
        classes = refined


def canonical_form(g: Graph) -> CanonicalCode:
    """Canonical code: the least code over the refinement-admissible orderings.

    Complete for every graph it accepts: the admissible orderings of two
    isomorphic graphs correspond one-to-one, so minimum codes agree, and a
    shared code pins down a labelled graph. The least code is found row by
    row (see `_canonical_search`). Every graph with n <= 9 is accepted.
    A larger graph is accepted while the search holds at most the budget's
    count of live nodes at every depth (K_n for every n, and complete
    multipartite graphs such as K(2,2,2,2,2)), and a SizeCapError is raised
    otherwise (K2 x K8, with 80,640 automorphisms and no twins).
    """
    code, _, _ = _canonical_search(g)
    return CanonicalCode(n=g.n, bits=code)


def _twin_groups(adj) -> list[list[int]]:
    """Vertices with equal open (N(u) = N(v)) or equal closed (N[u] = N[v])
    neighbourhoods, as groups of two or more in increasing order.

    One dict holds both kinds of key: an open key N(u) equal to a closed
    key N[v] holds v, so u is in N(v), which lies in N[v] = N(u), a loop.
    No vertex is in two groups: an open twin v and a closed twin w of u
    would give w in N(v), so v in N[w] = N[u] and v in N(u) = N(v), a loop.
    """
    twins: dict = {}
    for u, row in enumerate(adj):
        twins.setdefault(row, []).append(u)
        twins.setdefault(row | 1 << u, []).append(u)
    return [group for group in twins.values() if len(group) > 1]


def _canonical_search(g: Graph, groups=None) -> tuple[int, int, list[tuple[int, ...]]]:
    """The search behind `canonical_form`: (code bits, |Aut(g)|, orders),
    where `orders` are the orderings (position -> vertex) of the leaves of
    least code, the first of them g's canonical labelling. `groups` are g's
    `_twin_groups`, found here when a caller does not have them.

    Positions are filled in order. A node is an ordered list of cells,
    bitsets of unplaced vertices, each holding the next block of positions;
    the root's cells are the refinement classes. Placing a vertex w of the
    first cell at position p fixes row p of the code (the pairs (p, q),
    q > p, which come before every later row), and within each later block
    that row is least with the non-neighbours of w first. So the child
    splits every cell into non-neighbours, then neighbours, of w, and its
    row is the tuple of neighbour counts per cell. The nodes of one depth
    share every earlier row and so their cell sizes; depth by depth the
    search keeps only the (node, w) pairs of least row. Once every cell is
    one vertex, each node left fixes an ordering, and those of least code
    are exactly the admissible orderings of least code.

    Those orderings form one coset of Aut(g) (refinement colours are
    automorphism-invariant, and two orderings give the same code exactly
    when they differ by an automorphism), so their count is |Aut(g)|.
    Unplaced twins (equal open or closed neighbourhoods) share a cell, and
    swapping two is an automorphism that fixes every other vertex and so
    maps the subtree below one onto the subtree below the other. One
    candidate per twin group of the first cell is tried, and its node
    carries its count times the group's size in that cell; the counts of
    the nodes of least code add up to |Aut(g)|, with no separate twin
    factor. So every ordering of least code is a product of twin swaps
    after one of `orders`, and Aut(g) is the set of maps s . a_i, with s a
    product of twin swaps and a_i taking orders[0][p] to orders[i][p] for
    every position p: a vertex's orbit is the union of the twin groups of
    its images under the a_i.

    The budget applies to the live nodes: once a depth's candidates are
    compared, more than `_CANONICAL_BUDGET` kept (node, w) pairs is a
    SizeCapError, raised before any child is built, so no depth builds
    more children than the budget. An isomorphism carries the kept pairs of one graph onto
    those of the other, so two isomorphic graphs are both labelled or both
    refused. The budget never enters the code or the count.
    """
    classes = _refinement_classes(g)
    adj = g.adj
    n = g.n
    twins = [1 << u for u in range(n)]
    for group in _twin_groups(adj) if groups is None else groups:
        mask = sum(1 << u for u in group)
        for u in group:
            twins[u] = mask
    live = [(classes, 1, ())]
    # the nodes of a depth share their cell sizes: stop once every cell is one vertex
    while len(live[0][0]) < n - len(live[0][2]):
        best = None
        for cells, count, placed in live:
            first = rest = cells[0]
            while rest:
                w = (rest & -rest).bit_length() - 1
                group = twins[w] & first
                rest ^= group
                nbrs = adj[w]
                row = [(c & nbrs).bit_count() for c in cells]  # w is not in nbrs
                if best is None or row < best:
                    best, kept = row, []
                if row == best:
                    kept.append((cells, w, count * group.bit_count(), placed))
        if len(kept) > _CANONICAL_BUDGET:
            raise SizeCapError(f"canonical search holds {len(kept)} live nodes, over the "
                               f"budget {_CANONICAL_BUDGET} (n={n})")
        live = [([part for c in (cells[0] ^ 1 << w, *cells[1:])
                  for part in (c & ~adj[w], c & adj[w]) if part], count, (*placed, w))
                for cells, w, count, placed in kept]
    # each node left fixes its ordering; pack its code MSB-first, so that
    # integer < is lexicographic order
    leaves: dict = {}
    for cells, count, placed in live:
        order = (*placed, *[c.bit_length() - 1 for c in cells])
        bits = 0
        for u, v in _row_major_pairs(n):
            bits = bits << 1 | (adj[order[u]] >> order[v] & 1)
        leaf = leaves.setdefault(bits, [0, []])
        leaf[0] += count
        leaf[1].append(order)
    least = min(leaves)
    aut, orders = leaves[least]
    return int(format(least, f"0{pair_count(n)}b")[::-1], 2), aut, orders


def canonical_graph(g: Graph) -> Graph:
    """The canonically labelled copy of g (graph of its canonical code)."""
    code = canonical_form(g)
    return code_to_graph(code.bits, code.n)

