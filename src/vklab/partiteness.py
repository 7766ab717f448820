"""Exact k-colorability, the vertex k-partiteness parameter, and class
membership for graphs with bounded k-partiteness.

A graph is k-partite exactly when it is properly k-colorable (parts may be
empty). The partiteness parameter and membership ("at most m deletions?")
are one search over ascending deletion budgets: a greedy colouring
certifies every budget from its deletion count up, and each smaller budget
is decided by a backtracking search in which every vertex joins a colour
class or, while the budget lasts, is deleted.
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
        if self.k < 2:
            raise InvalidParamsError(f"k must be >= 2, got {self.k}")
        if not 2 <= self.n <= MAX_VERTICES:
            raise InvalidParamsError(f"n must be in 2..{MAX_VERTICES}, got {self.n}")
        if not 1 <= self.m <= self.n - self.k:
            raise InvalidParamsError(
                f"m must satisfy 1 <= m <= n - k = {self.n - self.k}, got {self.m}")


def _by_degree(adj) -> list[int]:  # the order of every pass
    return sorted(range(len(adj)), key=[row.bit_count() for row in adj].__getitem__, reverse=True)


def _searcher(adj, order, k: int):
    """The colour-or-delete search `place(i, used, budget)` over `order`:
    each vertex joins a colour class free of its neighbours, opens at most
    one new class (used-colour symmetry pruning), or is deleted while the
    budget lasts. It succeeds as soon as the vertices left can each open a
    fresh class or be deleted."""
    n = len(order)
    rows = [adj[v] for v in order]
    bits = [1 << v for v in order]
    classes = [0] * k  # invariant: classes[c] == 0 for every c >= used

    def place(i: int, used: int, budget: int) -> bool:
        if n - i <= k - used + budget:
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
        return budget > 0 and place(i + 1, used, budget - 1)

    return place


def partiteness_within(adj, k: int, budgets) -> int | None:
    """Smallest b in the ascending `budgets` such that deleting at most b
    vertices leaves a k-partite graph, or None; adjacency rows are given
    directly. A greedy pass in the search order (first free class, else
    delete) deleting d vertices certifies every b >= d, since v_k <= d; each
    b < d is decided in turn by the exact search at budget b."""
    order = _by_degree(adj)
    classes, deleted = [0] * k, 0
    for v in order:
        row = adj[v]
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
            place = _searcher(adj, order, k)
        if place(0, 0, budget):
            return budget
    return None


def is_k_partite(g: Graph, k: int) -> bool:
    """True iff the vertices admit a proper k-coloring (parts may be empty)."""
    if k < 1:
        raise InvalidParamsError(f"k must be >= 1, got {k}")
    return partiteness_within(g.adj, k, (0,)) is not None


def vertex_k_partiteness(g: Graph, k: int) -> int:
    """Fewest vertex deletions after which the rest is k-partite.

    Always at most n - k (any k remaining vertices are k-partite).
    """
    if k < 2:
        raise InvalidParamsError(f"k must be >= 2, got {k}")
    if g.n < k:
        raise InvalidParamsError(f"need n >= k, got n={g.n} k={k}")
    result = partiteness_within(g.adj, k, range(g.n - k + 1))
    assert result is not None, "v_k <= n - k must always be attainable"
    return result


def in_class(g: Graph, params: ClassParams) -> bool:
    """Membership test: right order and k-partiteness at most m."""
    if g.n != params.n:
        return False
    return partiteness_within(g.adj, params.k, (params.m,)) is not None
