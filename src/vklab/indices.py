"""The ten topological indices, evaluated exactly.

Integer-valued indices return plain ints, the four distance/eccentricity
ratios return Fractions in lowest terms; nothing here ever touches a float,
so extremality and uniqueness comparisons stay decidable. Every kind has one
integer `kernel`: the ratios come out of it multiplied by lcm(1..n - 1), so
scans fold ints and build one Fraction per reported value.

Each index is classified as monotone decreasing or increasing under edge
addition on connected graphs; `direction` exposes the registry.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul

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
    return exact(IndexKind.HARARY, _scaled_harary(metrics), len(metrics.degree))


def rdd(metrics: DistanceMetrics) -> Fraction:
    """Reciprocal degree distance: sum of (d(u)+d(v))/dist(u,v) over pairs."""
    return exact(IndexKind.RDD, _scaled_rdd(metrics), len(metrics.degree))


def ecc_dist_sum(metrics: DistanceMetrics) -> int:
    """Vertex form: sum over vertices of eccentricity times transmission."""
    return sum(e * t for e, t in zip(metrics.ecc, metrics.transmission))


def conn_ecc(metrics: DistanceMetrics) -> Fraction:
    """Connective eccentricity: sum of degree/eccentricity over vertices."""
    return exact(IndexKind.CONN_ECC, _scaled_conn_ecc(metrics), len(metrics.degree))


def adj_ecc_dist_sum(metrics: DistanceMetrics) -> Fraction:
    """Adjacent eccentric distance sum: eccentricity * transmission / degree."""
    return exact(IndexKind.ADJ_ECC_DIST_SUM, _scaled_adj_ecc_dist_sum(metrics),
                 len(metrics.degree))


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


# The four rational kinds as integer kernels: each term divides by a distance,
# degree or eccentricity, all in 1..n - 1, so the sums below are L * value
# for L = value_scale(n), exactly, with no Fraction until the end.

@cache
def value_scale(n: int) -> int:
    """L = lcm(1..n - 1), the common denominator of every rational index
    on n vertices."""
    return lcm(*range(1, n))


@cache
def _quotients(n: int) -> tuple[int, ...]:
    """(0, L // 1, ..., L // (n - 1)) for L = value_scale(n); the 0 meets
    the always-empty distance-0 entries of the pair sums."""
    scale = value_scale(n)
    return (0,) + tuple(scale // d for d in range(1, n))


def _scaled_harary(metrics: DistanceMetrics) -> int:
    return sum(map(mul, metrics.pair_counts, _quotients(len(metrics.degree))))


def _scaled_rdd(metrics: DistanceMetrics) -> int:
    return sum(map(mul, metrics.degree_sums, _quotients(len(metrics.degree))))


def _scaled_conn_ecc(metrics: DistanceMetrics) -> int:
    q = _quotients(len(metrics.degree))
    return sum(d * q[e] for d, e in zip(metrics.degree, metrics.ecc))


def _scaled_adj_ecc_dist_sum(metrics: DistanceMetrics) -> int:
    q = _quotients(len(metrics.degree))
    return sum(e * t * q[d] for e, t, d in zip(metrics.ecc, metrics.transmission,
                                               metrics.degree))


def degree_metrics(g: Graph) -> DistanceMetrics:
    """Enough structure for the four degree-only kinds; distances unset."""
    return DistanceMetrics(adj=g.adj, transmission=None, ecc=None, degree=g.degrees())


def kernel(kind: IndexKind):
    """The one evaluator of `kind`: metrics -> int, the index itself for an
    integer kind and `value_scale(n)` times it for a rational one, so a fold
    over graphs of one order compares ints (`exact` gives the value back)."""
    return _KERNELS[kind]


def exact(kind: IndexKind, scaled: int, n: int) -> int | Fraction:
    """The value of `kind` on n vertices from its `kernel` int."""
    return scaled if kind in INTEGER_VALUED else Fraction(scaled, value_scale(n))


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
        metrics = degree_metrics(g) if kind in DEGREE_ONLY else compute_metrics(g)
    return exact(kind, _KERNELS[kind](metrics), g.n)


_KERNELS = {
    IndexKind.WIENER: wiener,
    IndexKind.HARARY: _scaled_harary,
    IndexKind.RDD: _scaled_rdd,
    IndexKind.ECC_DIST_SUM: ecc_dist_sum,
    IndexKind.CONN_ECC: _scaled_conn_ecc,
    IndexKind.ADJ_ECC_DIST_SUM: _scaled_adj_ecc_dist_sum,
    IndexKind.ZAGREB_M1: zagreb_m1,
    IndexKind.ZAGREB_M2: zagreb_m2,
    IndexKind.MULT_ZAGREB_PI1: mult_zagreb_pi1,
    IndexKind.MULT_ZAGREB_PI2: mult_zagreb_pi2,
}
