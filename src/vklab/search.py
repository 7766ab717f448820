"""Exhaustive enumeration and extremal scans.

Scans run over a catalogue of connected graphs up to isomorphism, built by
vertex extension (each level n - 1 representative gains one vertex,
deduplicated by canonical code), instead of over all 2^C(n,2) labelled
codes. Two isomorphism-invariant steps of canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998) leave about 15%
of the extensions to canonicalise: a parent gains one neighbourhood per
orbit of its twin swaps, and an extension is kept only when its new vertex
has the least (degree, sum of neighbour degrees) among the non-cut
vertices (ties allowed). Each entry carries |Aut(G)|, so a class's
labelled size is the orbit-stabilizer sum of n!/|Aut(G)| over its members,
and optimizers are canonical codes from the start. The catalogue is cached
per n and is identical however its construction is split across workers.

Catalogue and graph6 corpus scans share one per-graph pipeline: one
membership search over every m, then distance metrics, then index
evaluation. Scans support 2 <= n <= 9 (261,080 classes at n = 9), with any
worker count.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .errors import Graph6ParseError, InvalidParamsError, SizeCapError, VklabError
from .extremal import closed_form, extremal_graph, join_family_graph
from .graphs import (MAX_VERTICES, CanonicalCode, Graph, _canonical_search,
                     _symmetric_graph, _twin_groups, add_edge, canonical_form,
                     code_to_adj, code_to_graph, connected_mask, pair_count,
                     parse_graph6, to_graph6)
from .indices import ALL_KINDS, DEGREE_ONLY, Direction, IndexKind, direction, evaluate
from .metrics import compute_metrics
from .partiteness import ClassParams, partiteness_within

_SCAN_CAP = 9  # 261,080 classes; n = 10 has 11,716,571


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
    matches_closed_form: bool
    opposite: int | Fraction

    def optimizer_graph6(self) -> list[str]:
        """graph6 of each optimizer under its canonical labelling, sorted."""
        return sorted(to_graph6(code_to_graph(c.bits, c.n))
                      for c in self.optimizer_codes)


# ---------------------------------------------------------------------------
# the catalogue: connected graphs up to isomorphism, one level per order
# ---------------------------------------------------------------------------

_MINIMIZED = frozenset(k for k in ALL_KINDS if direction(k) is Direction.DECREASING)


class CatalogueEntry(NamedTuple):
    """One isomorphism class: canonical code, the graph in canonical
    labelling (the graph of that code), and |Aut(G)|."""

    code: CanonicalCode
    graph: Graph
    aut: int


def _extend(parents) -> dict:
    """Canonical code bits -> |Aut| for the one-vertex extensions of
    `parents` that survive twin-orbit pruning and the pre-test; the
    parallel unit of work.

    The new vertex takes each nonempty neighbourhood of `_neighbourhoods`
    in turn, so connected parents give connected children. A child is
    canonicalised only when no non-cut vertex has a smaller (degree, sum
    of neighbour degrees) than the new one (see `catalogue` for why that
    loses no class). A child's rows are valid by construction: the new
    vertex's bit is set on exactly the rows of its neighbours, and its own
    row is that neighbourhood.
    """
    found: dict = {}
    for parent in parents:
        g = parent.graph
        new = 1 << g.n
        for nbhd in _neighbourhoods(g.adj):
            adj = [row | new if nbhd >> u & 1 else row for u, row in enumerate(g.adj)]
            adj.append(nbhd)
            if _lighter_non_cut_vertex(adj):
                continue
            bits, aut = _canonical_search(_symmetric_graph(tuple(adj)))
            found[bits] = aut
    return found


def _neighbourhoods(adj) -> list[int]:
    """The nonempty vertex sets of `adj` that meet each twin group in its
    lowest vertices. Swapping two twins is an automorphism and the groups
    are disjoint, so these are one set per orbit of the subgroup of Aut
    that the twin swaps generate; each other vertex is a group of one."""
    groups = _twin_groups(adj)
    grouped = {u for group in groups for u in group}
    sets = [0]
    for group in groups + [[u] for u in range(len(adj)) if u not in grouped]:
        prefix, prefixes = 0, [0]
        for u in group:
            prefix |= 1 << u
            prefixes.append(prefix)
        sets = [s | p for s in sets for p in prefixes]
    return sets[1:]  # sets[0] is the empty set


def _lighter_non_cut_vertex(adj) -> bool:
    """Whether some vertex of the connected graph `adj`, other than the
    last, has a smaller (degree, sum of neighbour degrees) than the last
    and leaves the graph connected when deleted (a search from the last
    vertex that avoids it reaches all). The sums are computed only for
    vertices that tie the last vertex's degree."""
    last = len(adj) - 1
    degree = adj[last].bit_count()
    full = (1 << len(adj)) - 1
    weight = None
    for w in range(last):
        d = adj[w].bit_count()
        if d > degree:
            continue
        if d == degree:
            if weight is None:
                weight = _neighbour_degree_sum(adj, last)
            if _neighbour_degree_sum(adj, w) >= weight:
                continue
        keep = full ^ 1 << w
        if connected_mask(adj, 1 << last, keep) == keep:
            return True
    return False


def _neighbour_degree_sum(adj, u: int) -> int:
    total, rest = 0, adj[u]
    while rest:
        low = rest & -rest
        total += adj[low.bit_length() - 1].bit_count()
        rest ^= low
    return total


def _merge(parts, n: int) -> tuple[CatalogueEntry, ...]:
    """Level n from `_extend` results, sorted by canonical code; each
    entry's graph is the graph of its code (the canonical labelling).

    Equal codes carry equal |Aut|, so the level is the same for every
    split of the parent list. Parts are consumed one at a time, so only
    new codes are kept while pool results stream in.
    """
    found: dict = {}
    for part in parts:
        found.update(part)
    return tuple(CatalogueEntry(CanonicalCode(n, bits), code_to_graph(bits, n), aut)
                 for bits, aut in sorted(found.items()))


_CATALOGUES: dict[int, tuple[CatalogueEntry, ...]] = {}


def clear_sweep_cache() -> None:
    """Drop every cached catalogue level."""
    _CATALOGUES.clear()


def catalogue(n: int, workers: int = 1) -> tuple[CatalogueEntry, ...]:
    """Every connected graph on n vertices up to isomorphism, by canonical code.

    Level n extends each level n - 1 representative P by one vertex, for
    every nonempty neighbourhood that meets each twin group of P in its
    lowest vertices, keeps the children in which no non-cut vertex has a
    smaller key (degree, sum of neighbour degrees) than the new one, and
    dedups them by canonical code. That is complete. Every connected G has
    non-cut vertices (the leaves of a spanning tree); let v be one of least
    key among them. G - v is connected, so it is isomorphic to some level
    n - 1 representative P, and extending P by the image S of N(v) gives a
    copy of G whose new vertex plays the part of v. A product of twin swaps
    of P takes S to the set that meets each twin group in its lowest
    vertices; it is an automorphism of P, and with the new vertex fixed it
    maps that copy onto the child P is extended to. So the child is a copy
    of G in which the new vertex plays v, and it passes the test, because
    isomorphisms preserve keys and cut vertices. Levels are built on first
    use and cached per n.

    With `workers` > 1, level n is built by a process pool of at most
    `os.cpu_count()` processes, on the platform's default start method. It
    runs one task per process: task i extends the parents `i::workers` of
    level n - 1, which the worker reads from its own catalogue (a copy of
    this process's cache where the start method copies memory, else built
    in the worker), so no graph crosses the pipe. A worker that dies is a
    VklabError that names the level. The result does not depend on the
    worker count or the start method.
    """
    if n in _CATALOGUES:
        return _CATALOGUES[n]
    if n < 1:
        raise ValueError(f"catalogue needs n >= 1, got {n}")
    if n == 1:
        level = (CatalogueEntry(CanonicalCode(1, 0), Graph((0,)), 1),)
    else:
        parents = catalogue(n - 1)
        workers = min(workers, len(parents), os.cpu_count() or 1)
        if workers <= 1:
            level = _merge([_extend(parents)], n)
        else:
            # imported here: the pool machinery is a third of the package's
            # import time, and most runs never start a pool
            from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
            try:
                with ProcessPoolExecutor(workers) as pool:
                    level = _merge(pool.map(_catalogue_slice, [n] * workers,
                                            range(workers), [workers] * workers), n)
            except BrokenProcessPool:
                raise VklabError(
                    f"a catalogue worker died while building level {n}") from None
    _CATALOGUES[n] = level
    return level


def _catalogue_slice(n: int, i: int, workers: int) -> dict:
    """Task i of `workers` in a pooled build of level n: `_extend` over
    every `workers`-th parent of level n - 1, starting at parent i."""
    return _extend(catalogue(n - 1)[i::workers])


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

    def toward(self, lowest: bool):
        """(value, tied items) at the minimum if `lowest`, else at the maximum."""
        return (self.min, self.min_items) if lowest else (self.max, self.max_items)


def _scan(source, n: int, k: int, m_values, kinds, canon=None) -> dict:
    """{(m, kind): ExtremalReport} from one pass over `source`, which yields
    (graph, labelled count, optimizer item) for connected graphs on n
    vertices. Each graph's values fold into one `Extremum` per (m, kind);
    `canon` maps optimizer items to canonical codes when they are not codes.
    No m, no kind, or a class without a member is an InvalidParamsError."""
    m_values = tuple(sorted(set(m_values)))
    kinds = tuple(kind for kind in ALL_KINDS if kind in set(kinds))
    if not m_values or not kinds:
        raise InvalidParamsError("a scan needs at least one m and one kind")
    params_by_m = {m: ClassParams(n, m, k) for m in m_values}  # validates
    need_metrics = any(kind not in DEGREE_ONLY for kind in kinds)
    class_counts = dict.fromkeys(m_values, 0)
    reducers = {m: [Extremum() for _ in kinds] for m in m_values}
    for g, labelled, item in source:
        least = partiteness_within(g.adj, k, m_values)
        if least is None:
            continue
        metrics = compute_metrics(g) if need_metrics else None
        vals = [evaluate(kind, g, metrics) for kind in kinds]
        for m in m_values:
            if m < least:
                continue
            class_counts[m] += labelled
            for ext, val in zip(reducers[m], vals):
                ext.add(val, item)
    reports = {}
    for m, params in params_by_m.items():
        if not class_counts[m]:
            raise InvalidParamsError(f"the scanned graphs contain no member of {params}")
        ghat = canonical_form(extremal_graph(params))
        for kind, ext in zip(kinds, reducers[m]):
            lowest = kind in _MINIMIZED
            optimum, items = ext.toward(lowest)
            codes = frozenset(map(canon, items) if canon else items)
            reports[(m, kind)] = ExtremalReport(
                params=params,
                kind=kind,
                optimum=optimum,
                optimizer_codes=codes,
                class_size=class_counts[m],
                matches_construction=codes == {ghat},
                matches_closed_form=optimum == closed_form(kind, params).value,
                opposite=ext.toward(not lowest)[0],
            )
    return reports


def _catalogue_items(n: int, workers: int):
    labelled = factorial(n)
    for entry in catalogue(n, workers):
        yield entry.graph, labelled // entry.aut, entry.code


def scan_many(n: int, k: int, m_values, kinds=ALL_KINDS, workers: int = 1) -> dict:
    """Scan one class family in a single pass over the catalogue.

    Returns {(m, kind): ExtremalReport} for every requested m and kind. A
    member stands for n!/|Aut(G)| labelled graphs in `class_size`;
    optimizers are catalogue codes, so ties need no canonicalisation.
    Reports are identical for every worker count, which only splits the
    catalogue build. n outside 2..9 is a SizeCapError; no m or no kind is
    an InvalidParamsError.
    """
    if workers < 1:
        raise InvalidParamsError(f"workers must be >= 1, got {workers}")
    if not 2 <= n <= _SCAN_CAP:
        raise SizeCapError(f"scans support 2 <= n <= {_SCAN_CAP}, got {n}")
    return _scan(_catalogue_items(n, workers), n, k, m_values, kinds)


def scan_class(params: ClassParams, kind: IndexKind, workers: int = 1) -> ExtremalReport:
    """Exhaustive extremal scan of one class for one index (see `scan_many`)."""
    reports = scan_many(params.n, params.k, (params.m,), (kind,), workers=workers)
    return reports[(params.m, kind)]


def _corpus_items(graphs, n: int):
    full = (1 << n) - 1
    for g in graphs:
        if g.n == n and connected_mask(g.adj) == full:
            yield g, 1, g


def scan_corpus(graphs, params: ClassParams, kind: IndexKind) -> ExtremalReport:
    """Scan an externally supplied corpus; each graph counts once.

    Graphs of the wrong order, disconnected graphs, and non-members are
    skipped; a corpus with no class member is an InvalidParamsError. On a
    corpus containing one representative per isomorphism class this
    reproduces the catalogue scan's optimum and optimizer codes.
    """
    reports = _scan(_corpus_items(graphs, params.n), params.n, params.k, (params.m,),
                    (kind,), canon=canonical_form)
    return reports[(params.m, kind)]


# ---------------------------------------------------------------------------
# join-family sub-scan (diagnosis helper for regime exceptions)
# ---------------------------------------------------------------------------

def family_scan(params: ClassParams, kind: IndexKind):
    """Optimum of the index over every join-family member of the class.

    Iterates all compositions of n - m into at most k nonempty parts (a part
    count below k is the same as allowing empty parts). Returns
    (optimum, [sorted size lists attaining it]).
    """
    ext = Extremum()
    for sizes in _partitions_at_most(params.n - params.m, params.k):
        ext.add(evaluate(kind, join_family_graph(params.m, sizes)), sizes)
    return ext.toward(kind in _MINIMIZED)


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

    kind: IndexKind
    trials: int
    violations: int
    counterexamples: list = field(default_factory=list)
    resamples: int = 0
    seed: int | None = None


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
    report = FuzzReport(kind=kind, trials=trials, violations=0, seed=seed)
    want = direction(kind)
    for _ in range(trials):
        n = rng.randint(lo, hi)
        while True:
            g = random_connected_graph(rng, n)
            non_edges = list(g.non_edges())
            if non_edges:
                break
            report.resamples += 1
        u, v = non_edges[rng.randrange(len(non_edges))]
        before = evaluate(kind, g)
        after = evaluate(kind, add_edge(g, u, v))
        ok = after < before if want is Direction.DECREASING else after > before
        if not ok:
            report.violations += 1
            if len(report.counterexamples) < 10:
                report.counterexamples.append((to_graph6(g), u, v))
    return report
