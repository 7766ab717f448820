"""Exact k-colorability, the vertex k-partiteness parameter, and class
membership for graphs with bounded k-partiteness.

A graph is k-partite exactly when it is properly k-colorable (parts may be
empty). The partiteness parameter and membership ("at most m deletions?")
are one search over ascending deletion budgets: a first-fit colouring in
vertex order certifies every budget from its deletion count up, and each
smaller budget is decided by a backtracking search, in descending-degree
order, in which every vertex is deleted while the budget lasts or else
joins a colour class. The certificate depends on the labelling; the
answer does not.
Everything here is exact, sized for graphs of at most a dozen vertices
inside enumeration loops.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParamsError
from .graphs import MAX_VERTICES, Graph


@dataclass(frozen=True)
class ClassParams:
    """(n, m, k): graphs on n vertices whose k-partiteness is at most m."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        check_k(self.k)
        if not 2 <= self.n <= MAX_VERTICES:
            raise InvalidParamsError(f"n must be in 2..{MAX_VERTICES}, got {self.n}")
        if not 1 <= self.m <= self.n - self.k:
            raise InvalidParamsError(
                f"m must satisfy 1 <= m <= n - k = {self.n - self.k}, got {self.m}")


def check_k(k: int) -> None:
    """Every k-partiteness question needs k >= 2 (InvalidParamsError)."""
    if k < 2:
        raise InvalidParamsError(f"k must be >= 2, got {k}")


def _searcher(adj, k: int):
    """The colour-or-delete search `place(i, used, budget)` over the
    vertices in descending-degree order: each vertex is deleted while the
    budget lasts, or else joins a colour class free of its neighbours or
    opens at most one new class (used-colour symmetry pruning). It succeeds
    as soon as the vertices left can each open a fresh class or be deleted."""
    n = len(adj)
    order = sorted(range(n), key=[row.bit_count() for row in adj].__getitem__, reverse=True)
    rows = [adj[v] for v in order]
    bits = [1 << v for v in order]
    classes = [0] * k  # invariant: classes[c] == 0 for every c >= used

    def place(i: int, used: int, budget: int) -> bool:
        if n - i <= k - used + budget:
            return True
        if budget and place(i + 1, used, budget - 1):
            return True
        row, bit = rows[i], bits[i]
        for c in range(used):
            if not classes[c] & row:
                classes[c] |= bit
                if place(i + 1, used, budget):
                    return True
                classes[c] ^= bit
        if used < k:
            classes[used] = bit
            if place(i + 1, used + 1, budget):
                return True
            classes[used] = 0
        return False

    return place


def partiteness_within(adj, k: int, budgets) -> int | None:
    """Smallest b in the ascending `budgets` such that deleting at most b
    vertices leaves a k-partite graph, or None; adjacency rows are given
    directly. A first-fit pass in vertex order (first free class, else
    delete) deleting d vertices certifies every b >= d, since v_k <= d; each
    b < d is decided in turn by the exact search at budget b, whose vertex
    order is sorted by degree only then."""
    classes, deleted = [0] * k, 0
    for v, row in enumerate(adj):
        for c, members in enumerate(classes):
            if not members & row:
                classes[c] = members | 1 << v
                break
        else:
            deleted += 1
            if deleted > budgets[-1]:
                break
    place = None
    for budget in budgets:
        if budget >= deleted:
            return budget
        if place is None:
            place = _searcher(adj, k)
        if place(0, 0, budget):
            return budget
    return None


def vertex_k_partiteness(g: Graph, k: int) -> int:
    """Fewest vertex deletions after which the rest is k-partite.

    Always at most n - k (any k remaining vertices are k-partite).
    """
    check_k(k)
    if g.n < k:
        raise InvalidParamsError(f"need n >= k, got n={g.n} k={k}")
    result = partiteness_within(g.adj, k, range(g.n - k + 1))
    assert result is not None, "v_k <= n - k must always be attainable"
    return result

