"""Distance metrics by repeated bitset BFS: the per-vertex quantities
(transmission, eccentricity, degree) and the per-distance pair sums every
index evaluator consumes.

Each BFS keeps only layer sums: the transmission of its source is
sum d * |L_d|, the eccentricity is the index of the last layer, and every
layer adds its pair count and degree sum to the per-distance totals. A BFS
stops once every vertex is seen: the last layer's degree sum is the total
degree less the layers before it. No per-pair rows are written.

Metrics are computed once per graph and passed around; evaluators never
recompute them. Only connected graphs have metrics: disconnected input is
an error, not an infinity convention.
"""

from __future__ import annotations

from .errors import DisconnectedGraphError, GraphSizeError
from .graphs import Graph


class DistanceMetrics:
    """Transmissions D(u), eccentricities and degrees per vertex, plus
    `pair_counts[d]` (unordered pairs at distance d) and `degree_sums[d]`
    (sum of d(u) + d(v) over those pairs), both indexed from d = 0."""

    __slots__ = ("adj", "transmission", "ecc", "degree", "pair_counts", "degree_sums")

    def __init__(self, adj, transmission, ecc, degree, pair_counts=None,
                 degree_sums=None):
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
    total_degree = sum(degree)
    transmission = [0] * n
    ecc = [0] * n
    # over ordered pairs: every unordered pair is seen from both ends, so the
    # counts are halved below, and the degree sums come out as d(u) + d(v)
    pairs = [0] * n
    degree_sums = [0] * n
    for src in range(n):
        frontier = adj[src]
        seen = frontier | 1 << src
        d, total = 1, frontier.bit_count()
        pairs[1] += total
        rest = total_degree - degree[src]  # degrees of the unexpanded layers
        while seen != full:
            nxt = deg = 0
            f = frontier
            while f:
                low = f & -f
                v = low.bit_length() - 1
                f ^= low
                nxt |= adj[v]
                deg += degree[v]
            degree_sums[d] += deg
            rest -= deg
            frontier = nxt & ~seen
            if not frontier:
                raise DisconnectedGraphError("graph is not connected")
            d += 1
            seen |= frontier
            size = frontier.bit_count()
            pairs[d] += size
            total += d * size
        degree_sums[d] += rest  # the last layer, never expanded
        transmission[src] = total
        ecc[src] = d
    diameter = max(ecc)
    return DistanceMetrics(
        adj=adj, transmission=transmission, ecc=ecc, degree=degree,
        pair_counts=[c // 2 for c in pairs[:diameter + 1]],
        degree_sums=degree_sums[:diameter + 1])
