"""The ten topological indices, evaluated exactly.

Integer-valued indices return plain ints, the four distance/eccentricity
ratios return Fractions in lowest terms; nothing here ever touches a float,
so extremality and uniqueness comparisons stay decidable. `kernel(kinds)`
is the one evaluator: one `compute_metrics` BFS per graph when some kind
needs distances, else the degrees alone. Ratios come out times lcm(1..n - 1),
so scans fold ints and build one Fraction per reported value.

Each index is classified as monotone decreasing or increasing under edge
addition on connected graphs; `direction` exposes the registry.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul
from typing import NamedTuple

from .errors import GraphSizeError, InvalidParamsError
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


# One integer kernel per kind, metrics -> int: an integer kind's value, or
# for a rational kind L * value, L = value_scale(n), exact because each term
# divides by a distance, degree or eccentricity in 1..n - 1.

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


def _wiener(metrics: DistanceMetrics) -> int:
    """Sum of distances over unordered vertex pairs."""
    return sum(metrics.transmission) // 2


def _scaled_harary(metrics: DistanceMetrics) -> int:
    """L times the Harary index: sum of 1/dist(u, v) over unordered pairs."""
    return sum(map(mul, metrics.pair_counts, _quotients(len(metrics.degree))))


def _scaled_rdd(metrics: DistanceMetrics) -> int:
    """L times the reciprocal degree distance, sum of (d(u)+d(v))/dist(u,v)."""
    return sum(map(mul, metrics.degree_sums, _quotients(len(metrics.degree))))


def _ecc_dist_sum(metrics: DistanceMetrics) -> int:
    """Vertex form: sum over vertices of eccentricity times transmission."""
    return sum(e * t for e, t in zip(metrics.ecc, metrics.transmission))


def _scaled_conn_ecc(metrics: DistanceMetrics) -> int:
    """L times the connective eccentricity: sum of degree/eccentricity."""
    q = _quotients(len(metrics.degree))
    return sum(d * q[e] for d, e in zip(metrics.degree, metrics.ecc))


def _scaled_adj_ecc_dist_sum(metrics: DistanceMetrics) -> int:
    """L times the adjacent eccentric distance sum: sum of ecc * D(u) / d(u)."""
    q = _quotients(len(metrics.degree))
    return sum(e * t * q[d] for e, t, d in zip(metrics.ecc, metrics.transmission,
                                               metrics.degree))


def _zagreb_m1(metrics) -> int:
    """First Zagreb index: sum of squared degrees."""
    return sum(d * d for d in metrics.degree)


def _zagreb_m2(metrics) -> int:
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


def _mult_zagreb_pi1(metrics) -> int:
    """First multiplicative Zagreb index: product of squared degrees."""
    p = 1
    for d in metrics.degree:
        p *= d
    return p * p


def _mult_zagreb_pi2(metrics) -> int:
    """Second multiplicative Zagreb index, vertex form: product of d(u)^d(u).

    Uses the 0^0 = 1 convention, reachable only through degree-only
    evaluation of graphs with isolated vertices.
    """
    p = 1
    for d in metrics.degree:
        p *= d ** d
    return p


_KERNELS = {
    IndexKind.WIENER: _wiener,
    IndexKind.HARARY: _scaled_harary,
    IndexKind.RDD: _scaled_rdd,
    IndexKind.ECC_DIST_SUM: _ecc_dist_sum,
    IndexKind.CONN_ECC: _scaled_conn_ecc,
    IndexKind.ADJ_ECC_DIST_SUM: _scaled_adj_ecc_dist_sum,
    IndexKind.ZAGREB_M1: _zagreb_m1,
    IndexKind.ZAGREB_M2: _zagreb_m2,
    IndexKind.MULT_ZAGREB_PI1: _mult_zagreb_pi1,
    IndexKind.MULT_ZAGREB_PI2: _mult_zagreb_pi2,
}


class _Degrees(NamedTuple):
    """All that the degree-only kernels read of a graph."""
    adj: tuple[int, ...]
    degree: list[int]


def kernel(kinds):
    """The one evaluator of `kinds`: g -> [kernel int of each kind, in order],
    so a fold over graphs of one order compares ints (`exact` gives each
    value back). The kinds are checked and resolved once, here: none, or one
    that is not an IndexKind, is an InvalidParamsError. The evaluator runs
    one `compute_metrics` BFS when some kind needs distances (a disconnected
    graph is then a DisconnectedGraphError), else reads the degrees alone; a
    graph on fewer than 2 vertices is a GraphSizeError.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise InvalidParamsError("no index kind requested")
    for kind in kinds:
        if kind not in _KERNELS:
            raise InvalidParamsError(f"unknown index kind {kind!r}")
    kernels = [_KERNELS[kind] for kind in kinds]
    distances = not DEGREE_ONLY.issuperset(kinds)

    def values(g: Graph) -> list[int]:
        if g.n < 2:
            raise GraphSizeError(f"indices are defined for n >= 2 only, got n={g.n}")
        # compute_metrics is looked up at each call: a wrapper sees every BFS
        metrics = compute_metrics(g) if distances else _Degrees(g.adj, g.degrees())
        return [f(metrics) for f in kernels]
    return values


def exact(kind: IndexKind, scaled: int, n: int) -> int | Fraction:
    """The value of `kind` on n vertices from its `kernel` int."""
    return scaled if kind in INTEGER_VALUED else Fraction(scaled, value_scale(n))


def evaluate(kind: IndexKind, g: Graph,
             metrics: DistanceMetrics | None = None) -> int | Fraction:
    """Evaluate one index on a graph, sharing a precomputed metrics object
    if one is passed (`kernel` evaluates several kinds at once).

    Distance and eccentricity kinds require a connected graph (raises
    DisconnectedGraphError otherwise); the four degree-only Zagreb kinds
    accept any simple graph with n >= 2.
    """
    scaled = kernel((kind,))(g)[0] if metrics is None else _KERNELS[kind](metrics)
    return exact(kind, scaled, g.n)
