"""The extremal join-family construction and its printed closed forms.

The candidate optimizer for every monotone index on graphs with bounded
vertex k-partiteness is a clique joined onto a complete multipartite graph
with near-equal ("balanced") part sizes. This module builds that family,
evaluates the published closed-form values of each index on it, and exposes
the one-vertex balancing shift together with the published difference
predictions.

Closed forms are evaluated exactly as printed, flaws included: values carry
validity flags instead of silent corrections, because the point of the
artifact is to certify or refute the printed claims. The known flaws:

  * the second-Zagreb closed form omits the cross-part term
    sum_{i<j} s_i s_j (n - s_i)(n - s_j); the corrected form is available
    separately and matches direct evaluation on the whole grid;
  * the three eccentricity-based forms assume every part vertex has
    eccentricity 2, which fails when a part is a single universal vertex
    (part size 1 with a nonempty clique) -- such values are flagged
    regime-restricted;
  * two bipartite (k = 2) odd-case corollary lines carry typos: the
    adjacent-eccentric-distance line contains "(n-m-11)" where (n-m-1) is
    meant, and the eccentricity-distance-sum line's trailing constant has
    the wrong sign (-1 printed, +1 correct);
  * the published balancing-difference expressions for the reciprocal
    degree distance and the adjacent eccentric distance sum do not match
    direct computation, so those two predictions (and the remaining
    multiplicative ones) are demoted to sign-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParamsError
from .graphs import Graph, complete_graph, complete_multipartite, join
from .indices import ECCENTRICITY_KINDS, INTEGER_VALUED, Direction, IndexKind, direction
from .partiteness import ClassParams

EVEN = "even"
ODD = "odd"


@dataclass(frozen=True)
class PartitionSpec:
    """Balanced part sizes for a class: n - m = s*k + t, sizes s and s+1."""

    params: ClassParams
    sizes: tuple[int, ...]
    s: int
    t: int

    @property
    def balanced(self) -> bool:
        return max(self.sizes) - min(self.sizes) <= 1


@dataclass(frozen=True)
class ClosedFormValue:
    """A printed closed-form value plus the validity flags it ships with."""

    kind: IndexKind
    value: int | Fraction
    regime_restricted: bool = False
    erratum_suspect: bool = False


@dataclass(frozen=True)
class DifferencePrediction:
    """Predicted index change of the balancing shift: value(G-hat) - value(G-tilde).

    `exact` is present for the five kinds whose published difference survives
    scrutiny; `sign` is +1 for decreasing kinds (shift toward balance improves
    the minimum) and -1 for increasing kinds. Both are None when the
    prediction is out of the universal-vertex regime.
    """

    kind: IndexKind
    exact: int | Fraction | None
    sign: int | None
    regime_restricted: bool = False


def part_sizes(params: ClassParams) -> PartitionSpec:
    """Division with remainder: (k - t) parts of size s, then t of size s + 1."""
    s, t = divmod(params.n - params.m, params.k)
    if s < 1:
        raise InvalidParamsError("valid params always leave s >= 1")
    sizes = (s,) * (params.k - t) + (s + 1,) * t
    return PartitionSpec(params=params, sizes=sizes, s=s, t=t)


def join_family_graph(m: int, sizes) -> Graph:
    """K_m joined onto the complete multipartite graph with the given parts.

    Vertex order: the m clique vertices first, then the parts in order.
    """
    sizes = list(sizes)
    if m < 1:
        raise InvalidParamsError(f"clique size must be >= 1, got {m}")
    if not sizes or any(s < 1 for s in sizes):
        raise InvalidParamsError("part sizes must be a nonempty list of counts >= 1")
    return join(complete_graph(m), complete_multipartite(sizes))


def extremal_graph(params: ClassParams) -> Graph:
    """The balanced construction for the class parameters."""
    return join_family_graph(params.m, part_sizes(params).sizes)


def shift_vertex(sizes, i: int, j: int) -> list[int]:
    """Move one vertex from part i to part j; requires sizes[i] >= sizes[j] + 2."""
    sizes = list(sizes)
    if not (0 <= i < len(sizes) and 0 <= j < len(sizes)) or i == j:
        raise InvalidParamsError("i and j must be distinct part indices")
    if sizes[i] < sizes[j] + 2:
        raise InvalidParamsError(
            f"shift needs sizes[i] >= sizes[j] + 2, got {sizes[i]} and {sizes[j]}")
    sizes[i] -= 1
    sizes[j] += 1
    return sizes


# ---------------------------------------------------------------------------
# closed forms of the general (any k) statements
# ---------------------------------------------------------------------------

def closed_form(kind: IndexKind, params: ClassParams) -> ClosedFormValue:
    """Printed closed-form value of the index on the balanced construction.

    Eccentricity-based kinds are regime-restricted unless every part size is
    at least 2; the second Zagreb form is erratum-suspect always (it omits a
    cross-part term). Flags mark suspicion, never alter the value.
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
        kind=kind,
        value=_normalize(kind, val),
        regime_restricted=kind in ECCENTRICITY_KINDS and s < 2,
        erratum_suspect=kind is IndexKind.ZAGREB_M2,
    )


def closed_form_corrected(kind: IndexKind, params: ClassParams) -> ClosedFormValue:
    """Like closed_form, but with the established correction applied.

    Only the second Zagreb index has one: the cross-part term visible in the
    proof's expansion is restored. Other kinds come back unchanged (the
    eccentricity regime restriction is a domain restriction, not a fixable
    formula typo).
    """
    if kind is not IndexKind.ZAGREB_M2:
        return closed_form(kind, params)
    spec = part_sizes(params)
    n, m = params.n, params.m
    sizes = spec.sizes
    val = Fraction(m * (m - 1) * (n - 1) ** 2, 2)
    val += m * (n - 1) * sum(si * (n - si) for si in sizes)
    val += sum(sizes[i] * sizes[j] * (n - sizes[i]) * (n - sizes[j])
               for i in range(len(sizes)) for j in range(i + 1, len(sizes)))
    return ClosedFormValue(kind=kind, value=_normalize(kind, val))


# ---------------------------------------------------------------------------
# printed k = 2 corollary forms (even / odd residue of n - m)
# ---------------------------------------------------------------------------

def closed_form_bipartite(kind: IndexKind, n: int, m: int) -> ClosedFormValue:
    """Printed bipartite-case corollary value, from the line for the parity
    of n - m.

    The odd-case lines for the adjacent eccentric distance sum (garbled
    "(n-m-11)" factor) and the eccentricity distance sum (trailing constant
    printed as -1 instead of +1) are returned as printed and flagged
    erratum-suspect.
    """
    ClassParams(n, m, 2)  # validates the ranges
    F = Fraction
    erratum = False
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
            erratum = True
        elif kind is IndexKind.ADJ_ECC_DIST_SUM:
            # "(n-m-11)" as printed; (n-m-1) is evidently meant
            val = (m + F((n - m + 1) * (3 * n - m - 3), n + m - 1)
                   + F((n - m - 11) * (3 * n - m - 5), n + m + 1))
            erratum = True
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
    return ClosedFormValue(kind=kind, value=_normalize(kind, val),
                           regime_restricted=regime, erratum_suspect=erratum)


# ---------------------------------------------------------------------------
# balancing-shift difference predictions
# ---------------------------------------------------------------------------

# published difference expressions that survive direct verification
_EXACT_SHIFT_KINDS = frozenset({
    IndexKind.WIENER, IndexKind.HARARY, IndexKind.ECC_DIST_SUM,
    IndexKind.CONN_ECC, IndexKind.ZAGREB_M1,
})


def predicted_difference(kind: IndexKind, m: int, sizes,
                         i: int, j: int) -> DifferencePrediction:
    """Predicted change of moving one vertex from part i to part j of the
    construction on n = m + sum(sizes) vertices.

    The prediction compares the unbalanced construction against the shifted
    one. Exact values exist for five kinds; the rest are sign-only because
    their published difference expressions are unreliable. Eccentricity
    kinds require every part size >= 2; outside that regime both `exact`
    and `sign` are None and the prediction is flagged.
    """
    sizes = list(sizes)
    shift_vertex(sizes, i, j)  # validates the shift precondition
    n = m + sum(sizes)
    si, sj = sizes[i], sizes[j]
    gap = si - sj - 1
    sign = 1 if direction(kind) is Direction.DECREASING else -1
    if kind in ECCENTRICITY_KINDS and min(sizes) < 2:
        return DifferencePrediction(kind=kind, exact=None, sign=None,
                                    regime_restricted=True)
    exact: int | Fraction | None
    if kind is IndexKind.WIENER:
        exact = gap
    elif kind is IndexKind.HARARY:
        exact = -Fraction(gap, 2)
    elif kind is IndexKind.ECC_DIST_SUM:
        exact = 4 * gap
    elif kind is IndexKind.CONN_ECC:
        exact = -gap
    elif kind is IndexKind.ZAGREB_M1:
        exact = -gap * (4 * n - 3 * si - 3 * sj)
    else:
        exact = None
    if exact is not None:
        assert (exact > 0) == (sign > 0) and exact != 0
    return DifferencePrediction(kind=kind, exact=exact, sign=sign)


def _normalize(kind: IndexKind, val: int | Fraction) -> int | Fraction:
    if kind in INTEGER_VALUED:
        frac = Fraction(val)
        assert frac.denominator == 1, f"{kind} must reduce to an integer, got {frac}"
        return int(frac)
    return Fraction(val)
