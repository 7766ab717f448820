"""The ten topological indices, evaluated exactly.

Integer-valued indices return plain ints, the four distance/eccentricity
ratios return Fractions in lowest terms; nothing here ever touches a float,
so extremality and uniqueness comparisons stay decidable.

Each index is classified as monotone decreasing or increasing under edge
addition on connected graphs; `direction` exposes the registry.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm

from .errors import GraphSizeError
from .graphs import Graph
from .metrics import DistanceMetrics, compute_metrics


class Direction(enum.Enum):
    DECREASING = "decreasing"
    INCREASING = "increasing"


class IndexKind(enum.Enum):
    WIENER = "wiener"
    HARARY = "harary"
    RDD = "rdd"
    ECC_DIST_SUM = "ecc_dist_sum"
    CONN_ECC = "conn_ecc"
    ADJ_ECC_DIST_SUM = "adj_ecc_dist_sum"
    ZAGREB_M1 = "zagreb_m1"
    ZAGREB_M2 = "zagreb_m2"
    MULT_ZAGREB_PI1 = "mult_zagreb_pi1"
    MULT_ZAGREB_PI2 = "mult_zagreb_pi2"


ALL_KINDS: tuple[IndexKind, ...] = tuple(IndexKind)

# Adding any edge to a connected graph strictly decreases these three and
# strictly increases the other seven.
_DECREASING = frozenset({
    IndexKind.WIENER, IndexKind.ECC_DIST_SUM, IndexKind.ADJ_ECC_DIST_SUM,
})

# These need degrees only and therefore accept disconnected graphs.
DEGREE_ONLY = frozenset({
    IndexKind.ZAGREB_M1, IndexKind.ZAGREB_M2,
    IndexKind.MULT_ZAGREB_PI1, IndexKind.MULT_ZAGREB_PI2,
})

# Exact integers; the remaining four are rationals.
INTEGER_VALUED = frozenset({
    IndexKind.WIENER, IndexKind.ECC_DIST_SUM, IndexKind.ZAGREB_M1,
    IndexKind.ZAGREB_M2, IndexKind.MULT_ZAGREB_PI1, IndexKind.MULT_ZAGREB_PI2,
})

# Closed forms for these assume every join-family part has eccentricity 2,
# which fails when a part is a single (hence universal) vertex.
ECCENTRICITY_KINDS = frozenset({
    IndexKind.ECC_DIST_SUM, IndexKind.CONN_ECC, IndexKind.ADJ_ECC_DIST_SUM,
})


def direction(kind: IndexKind) -> Direction:
    """Monotonicity of the index under adding an edge to a connected graph."""
    return Direction.DECREASING if kind in _DECREASING else Direction.INCREASING


def wiener(metrics: DistanceMetrics) -> int:
    """Sum of distances over unordered vertex pairs."""
    return sum(metrics.transmission) // 2


def harary(metrics: DistanceMetrics) -> Fraction:
    """Sum of reciprocal distances over unordered vertex pairs."""
    counts = metrics.pair_counts
    return _ratio_sum(counts[1:], range(1, len(counts)))


def rdd(metrics: DistanceMetrics) -> Fraction:
    """Reciprocal degree distance: sum of (d(u)+d(v))/dist(u,v) over pairs."""
    sums = metrics.degree_sums
    return _ratio_sum(sums[1:], range(1, len(sums)))


def ecc_dist_sum(metrics: DistanceMetrics) -> int:
    """Vertex form: sum over vertices of eccentricity times transmission."""
    return sum(e * t for e, t in zip(metrics.ecc, metrics.transmission))


def conn_ecc(metrics: DistanceMetrics) -> Fraction:
    """Connective eccentricity: sum of degree/eccentricity over vertices."""
    return _ratio_sum(metrics.degree, metrics.ecc)


def adj_ecc_dist_sum(metrics: DistanceMetrics) -> Fraction:
    """Adjacent eccentric distance sum: eccentricity * transmission / degree."""
    return _ratio_sum([e * t for e, t in zip(metrics.ecc, metrics.transmission)],
                      metrics.degree)


def zagreb_m1(metrics: DistanceMetrics) -> int:
    """First Zagreb index: sum of squared degrees."""
    return sum(d * d for d in metrics.degree)


def zagreb_m2(metrics: DistanceMetrics) -> int:
    """Second Zagreb index: sum of degree products over edges."""
    deg = metrics.degree
    total = 0
    for u, row in enumerate(metrics.adj):
        row = row >> (u + 1) << (u + 1)
        du = deg[u]
        while row:
            v = (row & -row).bit_length() - 1
            row &= row - 1
            total += du * deg[v]
    return total


def mult_zagreb_pi1(metrics: DistanceMetrics) -> int:
    """First multiplicative Zagreb index: product of squared degrees."""
    p = 1
    for d in metrics.degree:
        p *= d
    return p * p


def mult_zagreb_pi2(metrics: DistanceMetrics) -> int:
    """Second multiplicative Zagreb index, vertex form: product of d(u)^d(u).

    Uses the 0^0 = 1 convention, reachable only through degree-only
    evaluation of graphs with isolated vertices.
    """
    p = 1
    for d in metrics.degree:
        p *= d ** d
    return p


def _ratio_sum(nums, dens) -> Fraction:
    """Exact sum of nums[i]/dens[i], as one Fraction built over the lcm of
    the denominators and reduced once."""
    # dens is a sequence, not a generator: a star-call on a generator grows
    # its argument tuple by resizing, and CPython's tuple free lists then
    # keep a few hundred kilobytes of those tuples alive (seen as peak RSS)
    den = lcm(*dens)
    return Fraction(sum(num * (den // d) for num, d in zip(nums, dens)), den)


def _degree_only_metrics(g: Graph) -> DistanceMetrics:
    # enough structure for the four degree-based evaluators; distances unset
    return DistanceMetrics(adj=g.adj, transmission=None, ecc=None, degree=g.degrees())


def evaluate(kind: IndexKind, g: Graph,
             metrics: DistanceMetrics | None = None) -> int | Fraction:
    """Evaluate one index on a graph, sharing a precomputed metrics object.

    Distance and eccentricity kinds require a connected graph (raises
    DisconnectedGraphError otherwise); the four degree-only Zagreb kinds
    accept any simple graph with n >= 2.
    """
    if g.n < 2:
        raise GraphSizeError(f"indices are defined for n >= 2 only, got n={g.n}")
    if metrics is None:
        metrics = _degree_only_metrics(g) if kind in DEGREE_ONLY else compute_metrics(g)
    return _EVALUATORS[kind](metrics)


_EVALUATORS = {
    IndexKind.WIENER: wiener,
    IndexKind.HARARY: harary,
    IndexKind.RDD: rdd,
    IndexKind.ECC_DIST_SUM: ecc_dist_sum,
    IndexKind.CONN_ECC: conn_ecc,
    IndexKind.ADJ_ECC_DIST_SUM: adj_ecc_dist_sum,
    IndexKind.ZAGREB_M1: zagreb_m1,
    IndexKind.ZAGREB_M2: zagreb_m2,
    IndexKind.MULT_ZAGREB_PI1: mult_zagreb_pi1,
    IndexKind.MULT_ZAGREB_PI2: mult_zagreb_pi2,
}
