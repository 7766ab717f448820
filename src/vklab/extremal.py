"""The extremal join-family construction and its printed closed forms.

The candidate optimizer for every monotone index on graphs with bounded
vertex k-partiteness is a clique joined onto a complete multipartite graph
with near-equal ("balanced") part sizes. This module builds that family and
evaluates the published closed-form values of each index on it.

Closed forms are evaluated exactly as printed, flaws included, never
silently corrected, because the point of the artifact is to certify or
refute the printed claims; the one validity flag a value carries is
`regime_restricted`. The known flaws:

  * the second-Zagreb closed form omits the cross-part term
    sum_{i<j} s_i s_j (n - s_i)(n - s_j);
  * the three eccentricity-based forms assume every part vertex has
    eccentricity 2, which fails when a part is a single universal vertex
    (part size 1 with a nonempty clique) -- such values are flagged
    regime-restricted;
  * two bipartite (k = 2) odd-case corollary lines carry typos: the
    adjacent-eccentric-distance line contains "(n-m-11)" where (n-m-1) is
    meant, and the eccentricity-distance-sum line's trailing constant has
    the wrong sign (-1 printed, +1 correct).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphSizeError, InvalidParamsError
from .graphs import MAX_VERTICES, Graph, _symmetric_graph
from .indices import ECCENTRICITY_KINDS, INTEGER_VALUED, IndexKind
from .partiteness import ClassParams

EVEN = "even"
ODD = "odd"


@dataclass(frozen=True)
class PartitionSpec:
    """Balanced part sizes for a class: n - m = s*k + t, sizes s and s+1."""

    sizes: tuple[int, ...]
    s: int
    t: int


@dataclass(frozen=True)
class ClosedFormValue:
    """A printed closed-form value, flagged when the construction is outside
    the regime the form assumes."""

    value: int | Fraction
    regime_restricted: bool = False


def part_sizes(params: ClassParams) -> PartitionSpec:
    """Division with remainder: (k - t) parts of size s, then t of size s + 1."""
    s, t = divmod(params.n - params.m, params.k)
    if s < 1:
        raise InvalidParamsError("valid params always leave s >= 1")
    sizes = (s,) * (params.k - t) + (s + 1,) * t
    return PartitionSpec(sizes=sizes, s=s, t=t)


def join_family_graph(m: int, sizes) -> Graph:
    """K_m joined onto the complete multipartite graph with the given parts.

    Vertex order: the m clique vertices first, then the parts in order. The
    rows are written directly: a clique vertex sees every other vertex, and
    a part vertex every vertex outside its part.
    """
    sizes = list(sizes)
    if m < 1:
        raise InvalidParamsError(f"clique size must be >= 1, got {m}")
    if not sizes or any(s < 1 for s in sizes):
        raise InvalidParamsError("part sizes must be a nonempty list of counts >= 1")
    n = m + sum(sizes)
    if n > MAX_VERTICES:
        raise GraphSizeError(f"join would have {n} > {MAX_VERTICES} vertices")
    full = (1 << n) - 1
    rows = [full ^ 1 << u for u in range(m)]
    for size in sizes:
        rows += [full ^ ((1 << size) - 1) << len(rows)] * size
    return _symmetric_graph(tuple(rows))


def extremal_graph(params: ClassParams) -> Graph:
    """The balanced construction for the class parameters."""
    return join_family_graph(params.m, part_sizes(params).sizes)


# ---------------------------------------------------------------------------
# closed forms of the general (any k) statements
# ---------------------------------------------------------------------------

def closed_form(kind: IndexKind, params: ClassParams) -> ClosedFormValue:
    """Printed closed-form value of the index on the balanced construction.

    Eccentricity-based kinds are regime-restricted unless every part size is
    at least 2; the flag never alters the value.
    """
    spec = part_sizes(params)
    n, m, k, s, t = params.n, params.m, params.k, spec.s, spec.t
    F = Fraction
    if kind is IndexKind.WIENER:
        val = F(n * n - m, 2) + F((n - m) * (s - 2), 2) + F(t * (s + 1), 2)
    elif kind is IndexKind.HARARY:
        val = F(n * n - m, 2) - F((n - m) * (s + 1), 4) - F(t * (s + 1), 4)
    elif kind is IndexKind.RDD:
        val = (F(2 * n**3 - n * n - 3 * m * n + 2 * m, 2)
               - F((n - m) * (3 * n - s - 1) * s, 2)
               - F(t * (s + 1) * (3 * n - 2 * s - 2), 2))
    elif kind is IndexKind.ECC_DIST_SUM:
        val = m * (n - 1) + 2 * t * (s + 1) * (n + s - 1) + 2 * (k - t) * s * (n + s - 2)
    elif kind is IndexKind.ADJ_ECC_DIST_SUM:
        val = (m + F(2 * t * (s + 1) * (n + s - 1), n - s - 1)
               + F(2 * (k - t) * s * (n + s - 2), n - s))
    elif kind is IndexKind.CONN_ECC:
        val = m * (n - 1) + F(t * (s + 1) * (n - s - 1), 2) + F((k - t) * s * (n - s), 2)
    elif kind is IndexKind.ZAGREB_M1:
        val = m * (n - 1) ** 2 + t * (s + 1) * (n - s - 1) ** 2 + (k - t) * s * (n - s) ** 2
    elif kind is IndexKind.ZAGREB_M2:
        val = (F(m * (m - 1) * (n - 1) ** 2, 2)
               + m * (n - 1) * t * (s + 1) * (n - s - 1)
               + m * (n - 1) * (k - t) * s * (n - s))
    elif kind is IndexKind.MULT_ZAGREB_PI1:
        val = ((n - 1) ** (2 * m)
               * (n - s) ** (2 * s * (k - t))
               * (n - s - 1) ** (2 * t * (s + 1)))
    elif kind is IndexKind.MULT_ZAGREB_PI2:
        val = ((n - 1) ** (m * (n - 1))
               * (n - s) ** (s * (n - s) * (k - t))
               * (n - s - 1) ** ((s + 1) * (n - s - 1) * t))
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {kind}")
    return ClosedFormValue(
        value=_normalize(kind, val),
        regime_restricted=kind in ECCENTRICITY_KINDS and s < 2,
    )


# ---------------------------------------------------------------------------
# printed k = 2 corollary forms (even / odd residue of n - m)
# ---------------------------------------------------------------------------

def closed_form_bipartite(kind: IndexKind, n: int, m: int) -> ClosedFormValue:
    """Printed bipartite-case corollary value, from the line for the parity
    of n - m.

    The odd-case lines for the adjacent eccentric distance sum (garbled
    "(n-m-11)" factor) and the eccentricity distance sum (trailing constant
    printed as -1 instead of +1) are returned as printed.
    """
    ClassParams(n, m, 2)  # validates the ranges
    F = Fraction
    if (n - m) % 2 == 0:
        if kind is IndexKind.WIENER:
            val = F(3 * n * n + m * m - 2 * m * n - 4 * n + 2 * m, 4)
        elif kind is IndexKind.HARARY:
            val = F(3 * n * n - m * m + 2 * m * n - 2 * m - 2 * n, 8)
        elif kind is IndexKind.RDD:
            val = F(3 * n**3 - m**3 - 3 * m * m * n + 9 * m * n * n
                    - 2 * n * n + 2 * m * m - 16 * m * n + 8 * m, 8)
        elif kind is IndexKind.ECC_DIST_SUM:
            val = 3 * n * n - 4 * n - 3 * m * n + m * m + 3 * m
        elif kind is IndexKind.ADJ_ECC_DIST_SUM:
            val = m + F(2 * (n - m) * (3 * n - m - 4), n + m)
        elif kind is IndexKind.CONN_ECC:
            val = m * (n - 1) + F(n * n - m * m, 4)
        elif kind is IndexKind.ZAGREB_M1:
            val = m * (n - 1) ** 2 + F(n**3 + n * n * m - m * m * n - m**3, 4)
        elif kind is IndexKind.ZAGREB_M2:
            val = (F(m * (m - 1) * (n - 1) ** 2, 2)
                   + F((n * n - m * m) * (n * n + 8 * m * n - m * m - 8 * m), 16))
        elif kind is IndexKind.MULT_ZAGREB_PI1:
            val = (n - 1) ** (2 * m) * F(n + m, 2) ** (2 * (n - m))
        elif kind is IndexKind.MULT_ZAGREB_PI2:
            val = (n - 1) ** (m * (n - 1)) * F(n + m, 2) ** ((n * n - m * m) // 2)
        else:  # pragma: no cover
            raise ValueError(f"unknown kind {kind}")
    else:
        if kind is IndexKind.WIENER:
            val = F(3 * n * n + m * m - 2 * m * n - 4 * n + 2 * m + 1, 4)
        elif kind is IndexKind.HARARY:
            val = F(3 * n * n - m * m + 2 * m * n - 2 * m - 2 * n - 1, 8)
        elif kind is IndexKind.RDD:
            val = F(3 * n**3 - m**3 - 3 * m * m * n + 9 * m * n * n
                    - 2 * n * n + 2 * m * m - 16 * m * n - 3 * n + 5 * m + 2, 8)
        elif kind is IndexKind.ECC_DIST_SUM:
            # printed trailing constant is -1; the theorem's value needs +1
            val = 3 * n * n - 4 * n - 3 * m * n + m * m + 3 * m - 1
        elif kind is IndexKind.ADJ_ECC_DIST_SUM:
            # "(n-m-11)" as printed; (n-m-1) is evidently meant
            val = (m + F((n - m + 1) * (3 * n - m - 3), n + m - 1)
                   + F((n - m - 11) * (3 * n - m - 5), n + m + 1))
        elif kind is IndexKind.CONN_ECC:
            val = m * (n - 1) + F(n * n - m * m - 1, 4)
        elif kind is IndexKind.ZAGREB_M1:
            val = m * (n - 1) ** 2 + F(n**3 + n * n * m - m * m * n - n - m**3 - 3 * m, 4)
        elif kind is IndexKind.ZAGREB_M2:
            val = (F(m * (m - 1) * (n - 1) ** 2, 2)
                   + F(((n + m) ** 2 - 1) * ((n - m) ** 2 - 1)
                       + 4 * m * (n - 1) * (2 * n * n - 2 * m * m - 2), 16))
        elif kind is IndexKind.MULT_ZAGREB_PI1:
            val = ((n - 1) ** (2 * m)
                   * F(n + m + 1, 2) ** (n - m - 1)
                   * F(n + m - 1, 2) ** (n - m + 1))
        elif kind is IndexKind.MULT_ZAGREB_PI2:
            val = ((n - 1) ** (m * (n - 1))
                   * F(n + m - 1, 2) ** ((n * n - m * m + 2 * m - 1) // 4)
                   * F(n + m + 1, 2) ** ((n * n - m * m - 2 * m - 1) // 4))
        else:  # pragma: no cover
            raise ValueError(f"unknown kind {kind}")
    s = (n - m) // 2
    regime = kind in ECCENTRICITY_KINDS and s < 2
    return ClosedFormValue(value=_normalize(kind, val), regime_restricted=regime)


def _normalize(kind: IndexKind, val: int | Fraction) -> int | Fraction:
    if kind in INTEGER_VALUED:
        frac = Fraction(val)
        assert frac.denominator == 1, f"{kind} must reduce to an integer, got {frac}"
        return int(frac)
    return Fraction(val)
