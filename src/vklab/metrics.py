"""Distance metrics by repeated bitset BFS: the per-vertex quantities
(transmission, eccentricity, degree) and the per-distance pair sums every
index evaluator consumes.

Each BFS keeps only layer sums: the transmission of its source is
sum d * |L_d|, the eccentricity is the index of the last layer, and every
layer adds its pair count |L_d| and deg(source) * |L_d| to the
per-distance totals (over the ordered pairs at distance d, the source
degrees add up to the target degrees). A BFS stops once every vertex is
seen. No per-pair rows are written.

Metrics are computed once per graph, by `indices.kernel` for all the kinds
a caller asks for; evaluators never recompute them. Only connected graphs
have metrics: disconnected input is an error, not an infinity convention.
"""

from __future__ import annotations

from .errors import DisconnectedGraphError, GraphSizeError
from .graphs import Graph


class DistanceMetrics:
    """Transmissions D(u), eccentricities and degrees per vertex, plus
    `pair_counts[d]` (unordered pairs at distance d) and `degree_sums[d]`
    (sum of d(u) + d(v) over those pairs), both indexed from d = 0."""

    __slots__ = ("adj", "transmission", "ecc", "degree", "pair_counts", "degree_sums")

    def __init__(self, adj, transmission, ecc, degree, pair_counts, degree_sums):
        self.adj = adj
        self.transmission = transmission
        self.ecc = ecc
        self.degree = degree
        self.pair_counts = pair_counts
        self.degree_sums = degree_sums


def compute_metrics(g: Graph) -> DistanceMetrics:
    """Exact unweighted shortest-path metrics of a connected graph.

    Raises DisconnectedGraphError when some vertex is unreachable; callers
    must not request distance-based indices in that case.
    """
    n, adj = g.n, g.adj
    if n < 2:
        raise GraphSizeError(f"metrics need at least 2 vertices, got {n}")
    full = (1 << n) - 1
    degree = [row.bit_count() for row in adj]
    transmission = [0] * n
    ecc = [0] * n
    # over ordered pairs: every unordered pair is seen from both ends, so the
    # counts are halved below; each layer adds its source's degree times its
    # size, and with both ends counted the sums come out as d(u) + d(v)
    pairs = [0] * n
    degree_sums = [0] * n
    for src in range(n):
        frontier = adj[src]
        seen = frontier | 1 << src
        own = degree[src]
        d, total = 1, own
        pairs[1] += own
        degree_sums[1] += own * own
        while seen != full:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & ~seen
            if not frontier:
                raise DisconnectedGraphError("graph is not connected")
            d += 1
            seen |= frontier
            size = frontier.bit_count()
            pairs[d] += size
            degree_sums[d] += own * size
            total += d * size
        transmission[src] = total
        ecc[src] = d
    diameter = max(ecc)
    return DistanceMetrics(
        adj=adj, transmission=transmission, ecc=ecc, degree=degree,
        pair_counts=[c // 2 for c in pairs[:diameter + 1]],
        degree_sums=degree_sums[:diameter + 1])
