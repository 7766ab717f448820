"""Exhaustive enumeration and extremal scans.

Scans run over a catalogue of connected graphs up to isomorphism instead
of over all 2^C(n,2) labelled codes. It is built by canonical augmentation
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998, as in
nauty's geng): each level n - 1 class P gains a vertex v joined to one
vertex set S per Aut(P)-orbit, and the child is kept only when v is in its
canonical orbit. Its candidates are its non-cut vertices of least key
(degree, sum of neighbour degrees) and, of those, of least invariant
(triangles through the vertex, sorted neighbour degrees); its canonical
orbit is the orbit of the candidate that comes first in canonical order.
So each class is made exactly once: every connected graph has candidates,
and deleting one of its canonical orbit gives its one parent class and one
orbit of S.

Most children are settled without the labeller. No S of more than one
vertex beyond the least degree of a non-cut vertex of P is tried, as v
could not be a candidate. A child whose v is not a candidate is rejected.
One whose candidates are v and its twins is kept: they are v's orbit, so
|Aut(G)| = (their count) |Aut(P)| / |orbit of S|. Only the other children
are labelled (see `catalogue` for the proofs).

A level is its sorted (code bits, |Aut(G)|) pairs. Each code is that of
one labelled member of its class as it was made, not its canonical code;
canonical codes are made only for the optimizers a report names. A
class's labelled size is the orbit-stabilizer sum of n!/|Aut(G)| over its
members, and each level is checked, as it is built, against the count of
labelled connected graphs. The catalogue is cached per n and is identical
however its construction is split across workers.

Catalogue and graph6 corpus scans share one per-graph pipeline: one
`indices.kernel` evaluation per graph for every requested kind, and one
membership search per k over that k's requested m. A graph's values fold
into one bucket per k, that of the least requested m admitting it, and
the report for m merges the buckets at or below m, so one pass serves
every (m, k) of one n. Scans support 2 <= n <= 9 (261,080 classes at
n = 9), with any worker count.

Where the work runs is one helper, `_over_slices`, with one rule,
`_POOL_FROM`: building level n extends the pairs of level n - 1, and
scanning it folds its own pairs, in strided slices. With more than one
worker and n >= 8 each slice is a task of a process pool; otherwise one
slice of all the pairs runs in this process, since a pool costs more than
the work of a smaller level. A task is sent ints and the fold's classes
and kinds only, so no worker reads the catalogue. Results do not depend on
where the work ran.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial

from .errors import Graph6ParseError, InvalidParamsError, SizeCapError, VklabError
from .extremal import closed_form, extremal_graph, join_family_graph
from .graphs import (MAX_VERTICES, CanonicalCode, Graph, _adj_code, _canonical_search,
                     _symmetric_graph, _twin_groups, add_edge, canonical_form,
                     code_to_adj, code_to_graph, connected_mask, pair_count,
                     parse_graph6, to_graph6)
from .indices import ALL_KINDS, Direction, IndexKind, direction, exact, kernel
from .partiteness import ClassParams, partiteness_within

_SCAN_CAP = 9  # 261,080 classes; n = 10 has 11,716,571
# the least level built and scanned in a pool: level 7 (853 classes) takes
# about 0.1 s in-process, and a pool adds a third to its CPU time
_POOL_FROM = 8


def numbered_graph6(lines, errors: list | None = None):
    """Yield (1-based line number, graph) for each graph6 line, in file order.

    Blank lines are ignored. A malformed line raises a Graph6ParseError that
    carries its line number. To read leniently, pass a list as `errors`:
    each malformed line is then skipped and (line number, message) is
    appended to it, so no line is dropped unreported.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip(" \t\r\n")
        if not line:
            continue
        try:
            yield lineno, parse_graph6(line)
        except Graph6ParseError as exc:
            if errors is None:
                raise Graph6ParseError(str(exc), lineno) from None
            errors.append((lineno, str(exc)))


def load_graph6_corpus(lines, errors: list | None = None):
    """Yield the graphs of `numbered_graph6`, without their line numbers."""
    for _, g in numbered_graph6(lines, errors):
        yield g


@dataclass(frozen=True)
class ExtremalReport:
    """Outcome of one class scan for one index; `opposite` is the class's
    extreme on the other side of `optimum` (the minimum of a maximized index)."""

    params: ClassParams
    kind: IndexKind
    optimum: int | Fraction
    optimizer_codes: frozenset[CanonicalCode]
    class_size: int
    matches_construction: bool
    opposite: int | Fraction

    @property
    def matches_closed_form(self) -> bool:
        """Whether the optimum is the paper's printed closed form for the
        class; computed on each read, as only the `scan` command reports it."""
        return self.optimum == closed_form(self.kind, self.params).value

    def optimizer_graph6(self) -> list[str]:
        """graph6 of each optimizer under its canonical labelling, sorted."""
        return sorted(to_graph6(code_to_graph(c.bits, c.n))
                      for c in self.optimizer_codes)


# ---------------------------------------------------------------------------
# the catalogue: connected graphs up to isomorphism, one level per order
# ---------------------------------------------------------------------------

_MINIMIZED = frozenset(k for k in ALL_KINDS if direction(k) is Direction.DECREASING)


def _extend(n: int, parents) -> list[tuple[int, int]]:
    """The (code bits, |Aut|) pairs of the level n classes whose parent is
    one of `parents`, (code bits, |Aut|) pairs of level n - 1; the build
    task of `_over_slices` (see `catalogue` for why each class comes from
    exactly one parent).

    Each parent is decoded here and gains a last vertex joined to one set
    of each orbit of `_neighbourhoods`, so connected parents give connected
    children; sets of more than `_key_test`'s `most` vertices are not
    made, as the key test would reject their children. A child whose new
    vertex is the only non-cut vertex of least key is kept with |Aut| =
    |Aut P| / |orbit|, unlabelled; one that ties is settled by `_settle_tie`.
    A child's rows are valid by construction: the new vertex's bit is set
    on exactly the rows of its neighbours, and its own row is that set.
    """
    found = []
    new = 1 << (n - 1)
    for bits, aut in parents:
        rows = code_to_adj(bits, n - 1)
        key_test, most = _key_test(rows)
        for nbhd, orbit in _neighbourhoods(rows, aut, most):
            ties = key_test(nbhd)
            if ties is None:
                continue
            adj = [row | new if nbhd >> u & 1 else row for u, row in enumerate(rows)]
            adj.append(nbhd)
            child_aut = aut // orbit
            if ties:
                child_aut = _settle_tie(adj, ties | new, child_aut)
                if child_aut is None:
                    continue
            found.append((_adj_code(adj), child_aut))
    return found


def _neighbourhoods(adj, aut: int, most: int) -> list[tuple[int, int]]:
    """One vertex set of each orbit of Aut(adj) on the nonempty sets of at
    most `most` vertices, with the size of its orbit; `aut` is |Aut(adj)|.
    Automorphisms keep a set's size, so those sets are a union of orbits.

    Twin swaps are automorphisms, so the twin groups' symmetric groups
    form a subgroup T of Aut, of order the product of |g|! over the groups
    g. The sets that meet each group in its lowest vertices are one per
    T-orbit, of size the product of C(|g|, |S & g|). When |Aut| is |T|
    those are the orbits. Otherwise the graph is labelled once: Aut is the
    set of maps s . a_i (see `_canonical_search`), so the orbit of S is
    the union of the T-orbits of the a_i(S), and the T-orbits it merges
    are found by reducing each a_i(S) to its lowest vertices per group.
    """
    groups = _twin_groups(adj)
    grouped = {u for group in groups for u in group}
    sets, swaps, shares = {0: 1}, 1, []
    for group in groups + [[u] for u in range(len(adj)) if u not in grouped]:
        prefix, prefixes = 0, [0]
        for u in group:
            prefix |= 1 << u
            prefixes.append(prefix)
        sets = {s | p: size * comb(len(group), i)
                for s, size in sets.items()
                for i, p in enumerate(prefixes[:most + 1 - s.bit_count()])}
        swaps *= factorial(len(group))
        if len(group) > 1:
            shares.append((prefix, prefixes))
    del sets[0]  # the empty set
    if aut == swaps:
        return list(sets.items())
    _, _, (first, *orders) = _canonical_search(_symmetric_graph(tuple(adj)), groups)
    maps = [dict(zip(first, order)) for order in orders]
    out, seen = [], set()
    for s, size in sets.items():
        if s in seen:
            continue
        orbit = {s}
        for image in maps:
            t, rest = 0, s
            while rest:
                low = rest & -rest
                t |= 1 << image[low.bit_length() - 1]
                rest ^= low
            for group, prefixes in shares:
                t = t & ~group | prefixes[(t & group).bit_count()]
            orbit.add(t)
        seen |= orbit
        out.append((s, sum(sets[t] for t in orbit)))
    return out


def _key_test(rows):
    """(test, most): the key test of the children of the connected graph
    `rows`, and the most neighbours a child may take and still pass it.

    The test is a function of a nonempty vertex set S that, for the child
    in which a new last vertex v is joined to S, gives None when a vertex
    of smaller key (degree, sum of neighbour degrees) than v is not a cut
    vertex, else the bitset of the non-cut vertices other than v whose key
    equals v's (0 when there are none). v itself is not a cut vertex, as
    `rows` is connected.

    Each child's keys come from the parent's: w's degree gains 1 when w is
    in S, and its sum gains |N(w) & S|, plus |S| when w is in S. Deleting w
    leaves the child connected exactly when S meets every component of the
    parent less w, so those components are found once per parent.

    `most` is 1 + the least degree of a non-cut vertex w of `rows` (one
    with at most one component less w). A set S of more neighbours has two
    or more vertices, so it meets that component, and w is a non-cut vertex
    of the child of degree at most its own plus 1, which is less than |S|,
    the degree of v: the test gives None.
    """
    degree = [row.bit_count() for row in rows]
    sums = [_degree_sum(degree, row) for row in rows]
    full = (1 << len(rows)) - 1
    parts = []
    most = len(rows)
    for w in range(len(rows)):
        rest, comps = full ^ 1 << w, []
        while rest:
            comp = connected_mask(rows, rest & -rest, rest)
            comps.append(comp)
            rest ^= comp
        parts.append(comps)
        if len(comps) <= 1:
            most = min(most, degree[w] + 1)

    def test(nbhd: int) -> int | None:
        size = nbhd.bit_count()
        weight = None
        ties = 0
        for w, comps in enumerate(parts):
            inside = nbhd >> w & 1
            d = degree[w] + inside
            if d > size:
                continue
            if d == size:
                if weight is None:
                    weight = _degree_sum(degree, nbhd) + size
                other = sums[w] + (rows[w] & nbhd).bit_count() + inside * size
                if other > weight:
                    continue
                if other == weight:
                    if all(nbhd & comp for comp in comps):
                        ties |= 1 << w
                    continue
            if all(nbhd & comp for comp in comps):
                return None
        return ties
    return test, most


def _degree_sum(degree, vertices: int) -> int:
    """The sum of `degree` over the bitset `vertices`."""
    total = 0
    while vertices:
        low = vertices & -vertices
        total += degree[low.bit_length() - 1]
        vertices ^= low
    return total


def _settle_tie(adj, tied: int, stabilizer: int) -> int | None:
    """|Aut(adj)| when the last vertex v of `adj` is in its canonical orbit,
    else None. `tied` is the bitset of v and the non-cut vertices that share
    its key, and `stabilizer` is |Aut(P)| / |orbit of S|, the order of v's
    stabilizer (see `catalogue`).

    Only the members of `tied` of least `_least_invariant` hold the
    canonical orbit. When v is not among them, it is not in that orbit.
    When they all lie in v's twin group, they are v's orbit, of size their
    count. Otherwise the child is labelled, once, with its twin groups.
    """
    last = len(adj) - 1
    least = _least_invariant(adj, tied)
    if not least >> last & 1:
        return None
    groups = _twin_groups(adj)
    twins = next((sum(1 << u for u in g) for g in groups if g[-1] == last), 1 << last)
    if not least & ~twins:
        return least.bit_count() * stabilizer
    _, aut, orders = _canonical_search(_symmetric_graph(tuple(adj)), groups)
    return aut if _in_canonical_orbit(least, orders, twins) else None


def _least_invariant(adj, tied: int) -> int:
    """The members w of the bitset `tied` of least (twice the triangles
    through w, sorted degrees of w's neighbours) in `adj`: an isomorphism
    maps them onto the least members of the image of `tied`."""
    best, least = None, 0
    while tied:
        bit = tied & -tied
        tied ^= bit
        row = adj[bit.bit_length() - 1]
        triangles, degrees = 0, []
        for x, other in enumerate(adj):
            if row >> x & 1:
                triangles += (other & row).bit_count()
                degrees.append(other.bit_count())
        degrees.sort()
        value = (triangles, degrees)
        if best is None or value < best:
            best, least = value, bit
        elif value == best:
            least |= bit
    return least


def _in_canonical_orbit(least: int, orders, twins: int) -> bool:
    """Whether the twin group `twins` (one vertex, when it has no twins) is
    in the orbit of the member of the bitset `least` that comes first in
    the canonical labelling orders[0]. `orders` are `_canonical_search`'s
    leaves of least code, so that orbit is the union of the twin groups of
    the vertices the leaves put at that member's position."""
    pos = next(p for p, u in enumerate(orders[0]) if least >> u & 1)
    return any(twins >> order[pos] & 1 for order in orders)


@cache
def _connected_labelled(n: int) -> int:
    """The labelled connected graphs on n vertices (A001187), by the
    recurrence over the order j of the component holding vertex 1: c(n) =
    2^C(n,2) - sum over j < n of C(n - 1, j - 1) c(j) 2^C(n - j, 2)."""
    return 2 ** pair_count(n) - sum(comb(n - 1, j - 1) * _connected_labelled(j)
                                    * 2 ** pair_count(n - j) for j in range(1, n))


_CATALOGUES: dict[int, tuple[tuple[int, int], ...]] = {}


def clear_sweep_cache() -> None:
    """Drop every cached catalogue level."""
    _CATALOGUES.clear()


def catalogue(n: int, workers: int = 1) -> tuple[tuple[int, int], ...]:
    """Every connected graph on n vertices up to isomorphism, as the sorted
    (code bits, |Aut(G)|) pairs of its classes. A code is that of one
    labelled member, as it was made, not the canonical code: `code_to_graph`
    gives the member and `canonical_form` of it the class's code.

    Level n extends each level n - 1 class P by a vertex v joined to one
    set S of each Aut(P)-orbit on the nonempty sets of at most
    `_key_test(P)`'s `most` vertices (`_neighbourhoods`). It keeps the child
    G = P + S when v is in G's canonical orbit. G's candidates are
    its non-cut vertices of least key (degree, sum of neighbour degrees)
    and, of those, the ones of least `_least_invariant` (triangles through
    the vertex, sorted neighbour degrees). The canonical orbit is the
    Aut(G)-orbit of the candidate that comes first in G's canonical
    labelling. Keys, cut vertices, the invariant and the canonical
    labelling up to automorphisms are invariant, so an isomorphism maps
    candidates onto candidates and canonical orbit onto canonical orbit.

    Each class is made at least once. A connected G has non-cut vertices
    (the leaves of a spanning tree), so it has candidates and a canonical
    orbit; let u be in it. G - u is connected, so some isomorphism f maps
    it onto a level n - 1 class P, and some a in Aut(P) maps f(N(u)) onto
    the set S that P is extended by: u has the least degree of G's non-cut
    vertices, so |N(u)| is at most `_key_test(P)`'s `most` (see there). Then
    a . f with u -> v maps G onto P + S and u to v, so v is in the
    canonical orbit of P + S, which is kept.

    Each class is made at most once. Let P + S and P' + S' be kept and
    isomorphic. An isomorphism maps the canonical orbit of one onto that of
    the other, so, composed with an automorphism of P' + S', it maps v to
    v. It then maps P onto P', so P = P', as level n - 1 holds one member
    of each class, and it is an automorphism of P that maps S onto S', so
    S = S', one set of each orbit.

    |Aut(G)| is exact, and most children are not labelled. Restricting to
    P maps the stabilizer of v in Aut(G) one to one onto the stabilizer of
    S in Aut(P), so |Aut(G)| = |orbit of v| |Aut(P)| / |orbit of S|. The
    candidates are a union of Aut(G)-orbits that holds the canonical orbit,
    so when v is not one, G is rejected. Every twin of v is a candidate, as
    swapping twins is an automorphism. When the candidates are v and its
    twins, they are v's orbit, which is then the canonical orbit, so G is
    kept and |orbit of v| is their count; that includes the case where v is
    the only non-cut vertex of least key. Otherwise the labeller gives both
    |Aut(G)| and the canonical orbit.

    Each level is checked as it is built: its classes stand for
    sum n!/|Aut(G)| labelled graphs, which must be `_connected_labelled(n)`,
    else it is a VklabError and the level is not cached. Levels are built
    on first use and cached per n; a parent's children depend only on its
    own pair, so a level is the same for every split of its parents.

    Level n is built by `_extend` over slices of level n - 1 (see
    `_over_slices`), and each level below it by the same rule. A build
    worker that dies is a VklabError that names the level. The result does
    not depend on the worker count or the start method.
    """
    if n in _CATALOGUES:
        return _CATALOGUES[n]
    if n < 1:
        raise ValueError(f"catalogue needs n >= 1, got {n}")
    if n == 1:
        level = ((0, 1),)  # the one-vertex graph: code 0, |Aut| 1
    else:
        level = tuple(sorted(pair for part in _over_slices(
            n, workers, f"a catalogue worker died while building level {n}",
            _extend, catalogue(n - 1, workers)) for pair in part))
    labellings = factorial(n)
    labelled = sum(labellings // aut for _, aut in level)
    if labelled != _connected_labelled(n):
        raise VklabError(f"catalogue level {n} stands for {labelled} labelled graphs, "
                         f"not the {_connected_labelled(n)} connected ones")
    _CATALOGUES[n] = level
    return level


def _over_slices(n: int, workers: int, failure: str, func, pairs, *args):
    """Yield `func(n, pairs[i::pool], *args)` for each slice i, in order.

    `pool` is 1 below `_POOL_FROM`, else `workers` capped at the number of
    pairs and at `os.cpu_count()`. One slice, all the pairs, runs in this
    process; more run in a pool of `pool` processes on the platform's
    default start method, one task per process, so all that crosses the
    pipe is `n`, a slice of pairs and `args`. A worker that dies is a
    VklabError with the message `failure`.
    """
    pool = min(workers, len(pairs), os.cpu_count() or 1) if n >= _POOL_FROM else 1
    if pool <= 1:
        yield func(n, pairs, *args)
        return
    # imported here: the pool machinery is a third of the package's
    # import time, and most runs never start a pool
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    try:
        with ProcessPoolExecutor(pool) as executor:
            yield from executor.map(func, [n] * pool,
                                    [pairs[i::pool] for i in range(pool)],
                                    *([arg] * pool for arg in args))
    except BrokenProcessPool:
        raise VklabError(failure) from None


class Extremum:
    """Running minimum and maximum of (value, item) pairs, with every item
    tied at each: the one "better or tied" comparison of every scan."""

    __slots__ = ("min", "min_items", "max", "max_items")

    def __init__(self):
        self.min = self.max = None
        self.min_items: list = []
        self.max_items: list = []

    def add(self, value, item) -> None:
        if self.min_items and self.min < value < self.max:
            return
        if not self.min_items or value < self.min:
            self.min, self.min_items = value, [item]
        elif value == self.min:
            self.min_items.append(item)
        if not self.max_items or value > self.max:
            self.max, self.max_items = value, [item]
        elif value == self.max:
            self.max_items.append(item)

    def merge(self, other: "Extremum") -> None:
        """Fold in every pair `other` has seen, as if each were added here."""
        if not other.min_items:
            return
        if not self.min_items or other.min < self.min:
            self.min, self.min_items = other.min, list(other.min_items)
        elif other.min == self.min:
            self.min_items += other.min_items
        if not self.max_items or other.max > self.max:
            self.max, self.max_items = other.max, list(other.max_items)
        elif other.max == self.max:
            self.max_items += other.max_items

    def toward(self, lowest: bool):
        """(value, tied items) at the minimum if `lowest`, else at the maximum."""
        return (self.min, self.min_items) if lowest else (self.max, self.max_items)


def _classes_by_k(params) -> dict:
    """k -> the distinct classes of that k in `params`, by ascending m."""
    by_k: dict = {}
    for p in sorted(set(params), key=lambda p: (p.k, p.m)):
        by_k.setdefault(p.k, []).append(p)
    return by_k


def _fold(source, by_k: dict, kinds) -> dict:
    """The per-graph half of a scan: {k: {m: [labelled count, one Extremum
    per kind]}} for the classes of `_classes_by_k` over `source`, which
    yields (graph, labelled count, optimizer item) for connected graphs of
    their order.

    Each graph gets its `kernel` ints once and, per k, one membership search
    over that k's m; it counts and folds into the bucket of the least m
    that admits it. Folds of disjoint sources combine with `_merge_folds`,
    so a source may be split in any way. No kind, or an unknown one, is an
    InvalidParamsError before `source` is read.
    """
    values = kernel(kinds)
    folds = {k: {p.m: [0, [Extremum() for _ in kinds]] for p in ps}
             for k, ps in by_k.items()}
    budgets = [(k, tuple(p.m for p in ps), folds[k]) for k, ps in by_k.items()]
    for g, labelled, item in source:
        vals = None
        for k, ms, buckets in budgets:
            least = partiteness_within(g.adj, k, ms)
            if least is None:
                continue
            if vals is None:
                vals = values(g)
            bucket = buckets[least]
            bucket[0] += labelled
            for ext, val in zip(bucket[1], vals):
                ext.add(val, item)
    return folds


def _merge_folds(folds: dict, part: dict) -> None:
    """Fold `part`, a `_fold` result over the same classes and kinds, into
    `folds`, as if one pass had read both sources."""
    for k, buckets in part.items():
        for m, (count, exts) in buckets.items():
            bucket = folds[k][m]
            bucket[0] += count
            for ext, other in zip(bucket[1], exts):
                ext.merge(other)


def _reports(by_k: dict, kinds, folds: dict, canon) -> dict:
    """The report half of a scan: {(params, kind): ExtremalReport} for the
    classes of `_classes_by_k` from their `_fold` buckets. The report for m
    merges the buckets of every m' <= m and turns its two extremes back into
    values. `canon` maps an optimizer item to its canonical code. A class
    without a member is an InvalidParamsError.
    """
    reports = {}
    for k, ps in by_k.items():
        class_size, running = 0, [Extremum() for _ in kinds]
        for p in ps:
            count, exts = folds[k][p.m]
            class_size += count
            if not class_size:
                raise InvalidParamsError(f"the scanned graphs contain no member of {p}")
            ghat = canonical_form(extremal_graph(p))
            for kind, ext, fold in zip(kinds, running, exts):
                ext.merge(fold)
                lowest = kind in _MINIMIZED
                optimum, items = ext.toward(lowest)
                optimum = exact(kind, optimum, p.n)
                codes = frozenset(map(canon, items))
                reports[(p, kind)] = ExtremalReport(
                    params=p,
                    kind=kind,
                    optimum=optimum,
                    optimizer_codes=codes,
                    class_size=class_size,
                    matches_construction=codes == {ghat},
                    opposite=exact(kind, ext.toward(not lowest)[0], p.n),
                )
    return reports


def _fold_level(n: int, pairs, by_k: dict, kinds) -> dict:
    """`_fold` over (code bits, |Aut|) pairs of level n, the scan task of
    `_over_slices`: each graph is decoded here, stands for n!/|Aut|
    labelled graphs, and its optimizer item is its code bits."""
    labelled = factorial(n)
    return _fold(((code_to_graph(bits, n), labelled // aut, bits) for bits, aut in pairs),
                 by_k, kinds)


def check_scan(n: int, workers: int) -> None:
    """Refuse a catalogue scan that cannot run: workers < 1 is an
    InvalidParamsError, n outside 2..9 a SizeCapError."""
    if workers < 1:
        raise InvalidParamsError(f"workers must be >= 1, got {workers}")
    if not 2 <= n <= _SCAN_CAP:
        raise SizeCapError(f"scans support 2 <= n <= {_SCAN_CAP}, got {n}")


def scan_catalogue(params, kinds=ALL_KINDS, workers: int = 1) -> dict:
    """Scan several classes of one order n in a single pass over the catalogue.

    Returns {(params, kind): ExtremalReport} for every class in `params`
    and every requested kind. Each catalogue member is evaluated once, and
    its membership is searched once per distinct k. A member stands for
    n!/|Aut(G)| labelled graphs in `class_size`. Optimizers are folded as
    the level's codes, which are not canonical, and each distinct one is
    canonicalised once per call for the reports. The level is built by
    `catalogue` and folded by `_fold_level` over slices of its pairs (see
    `_over_slices`); the slices' buckets are merged here in task order. A
    fold worker that dies is a VklabError that names the level. Reports
    are identical for every worker count. Classes of
    more than one n, or none, and no kind or an unknown one, are an
    InvalidParamsError raised before any graph work; see `check_scan` for n
    and `workers`.
    """
    params = tuple(params)
    orders = sorted({p.n for p in params})
    if len(orders) != 1:
        raise InvalidParamsError(f"a catalogue scan needs classes of one n, got {orders}")
    (n,) = orders
    check_scan(n, workers)
    kinds = tuple(dict.fromkeys(kinds))
    kernel(kinds)  # checks the kinds before the level is built
    by_k = _classes_by_k(params)
    level = catalogue(n, workers)
    folds = _fold((), by_k, kinds)
    for part in _over_slices(n, workers, f"a scan worker died while scanning level {n}",
                             _fold_level, level, by_k, kinds):
        _merge_folds(folds, part)
    return _reports(by_k, kinds, folds, cache(partial(_canonical_code, n)))


def _canonical_code(n: int, bits: int) -> CanonicalCode:
    """The canonical code of the class of level n's code `bits`."""
    return canonical_form(code_to_graph(bits, n))


def _corpus_items(graphs, n: int):
    full = (1 << n) - 1
    for g in graphs:
        if g.n == n and connected_mask(g.adj) == full:
            yield g, 1, g


def scan_corpus(graphs, params: ClassParams, kind: IndexKind) -> ExtremalReport:
    """Scan an externally supplied corpus; each graph counts once.

    Graphs of the wrong order, disconnected graphs, and non-members are
    skipped; a corpus with no class member, or an unknown kind, is an
    InvalidParamsError. On a corpus containing one representative per
    isomorphism class this reproduces the catalogue scan's optimum and
    optimizer codes.
    """
    by_k, kinds = {params.k: [params]}, (kind,)
    folds = _fold(_corpus_items(graphs, params.n), by_k, kinds)
    return _reports(by_k, kinds, folds, canonical_form)[(params, kind)]


# ---------------------------------------------------------------------------
# join-family sub-scan (diagnosis helper for regime exceptions)
# ---------------------------------------------------------------------------

def family_optima(params: ClassParams, kinds=ALL_KINDS) -> dict:
    """Optimum of each index over every join-family member of the class.

    Iterates all compositions of n - m into at most k nonempty parts (a part
    count below k is the same as allowing empty parts), and builds and
    measures each member once for all kinds, folding `kernel` ints.
    Returns {kind: (optimum, [sorted size lists attaining it])}; no kind or
    an unknown one is an InvalidParamsError.
    """
    kinds = tuple(kinds)
    values = kernel(kinds)
    exts = [Extremum() for _ in kinds]
    for sizes in _partitions_at_most(params.n - params.m, params.k):
        for ext, val in zip(exts, values(join_family_graph(params.m, sizes))):
            ext.add(val, sizes)
    optima = {}
    for kind, ext in zip(kinds, exts):
        value, tied = ext.toward(kind in _MINIMIZED)
        optima[kind] = (exact(kind, value, params.n), tied)
    return optima


def _partitions_at_most(total: int, parts: int):
    """Nonincreasing partitions of `total` into at most `parts` parts."""
    def rec(remaining, maxpart, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest
    yield from rec(total, total, parts)


# ---------------------------------------------------------------------------
# monotonicity fuzzing
# ---------------------------------------------------------------------------

@dataclass
class FuzzReport:
    """Result of a monotonicity fuzz run for one index."""

    trials: int
    violations: int
    counterexamples: list = field(default_factory=list)
    resamples: int = 0


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Edge-probability-1/2 graph, rejection-sampled until connected."""
    full = (1 << n) - 1
    bits = pair_count(n)
    while True:
        adj = code_to_adj(rng.getrandbits(bits), n)
        if connected_mask(adj) == full:
            return Graph(tuple(adj))


def monotonicity_fuzz(kind: IndexKind, trials: int, n_range: tuple[int, int],
                      seed: int) -> FuzzReport:
    """Check strict edge-addition monotonicity on random connected graphs.

    Each trial samples a connected graph (edge probability 1/2 conditioned
    on connectivity; complete graphs are resampled since they have no
    non-edge), adds one uniformly random non-edge, and asserts the strict
    inequality of the index's registered direction. Violations are reported
    as findings (graph6 plus the added pair), never raised. Deterministic
    for a fixed seed; single-threaded by design.
    """
    if trials < 1:
        raise InvalidParamsError(f"trials must be >= 1, got {trials}")
    lo, hi = n_range
    if lo < 3:
        # n = 2 has no connected non-complete graph, so resampling there
        # would never terminate
        raise InvalidParamsError(f"n_range must start at 3 or above, got {lo}")
    if hi < lo:
        raise InvalidParamsError(f"empty n_range {lo}..{hi}")
    if hi > MAX_VERTICES:
        raise InvalidParamsError(
            f"n_range must end at {MAX_VERTICES} or below, got {hi}")
    rng = random.Random(seed)
    report = FuzzReport(trials=trials, violations=0)
    want = direction(kind)
    value = kernel((kind,))  # kernel ints order graphs of one n as their values
    for _ in range(trials):
        n = rng.randint(lo, hi)
        while True:
            g = random_connected_graph(rng, n)
            non_edges = list(g.non_edges())
            if non_edges:
                break
            report.resamples += 1
        u, v = non_edges[rng.randrange(len(non_edges))]
        (before,) = value(g)
        (after,) = value(add_edge(g, u, v))
        ok = after < before if want is Direction.DECREASING else after > before
        if not ok:
            report.violations += 1
            if len(report.counterexamples) < 10:
                report.counterexamples.append((to_graph6(g), u, v))
    return report
