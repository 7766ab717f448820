"""Enumeration, corpus ingestion, scans, and the monotonicity fuzzer."""

import concurrent.futures.process
import hashlib
import multiprocessing
import os
import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from math import factorial, prod

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vklab import (ALL_KINDS, ClassParams, Direction, Graph6ParseError, IndexKind,
                   InvalidParamsError, SizeCapError, VklabError, canonical_form,
                   compute_metrics, direction, evaluate, family_optima, is_connected,
                   join_family_graph,
                   load_graph6_corpus, monotonicity_fuzz, parse_graph6, scan_catalogue,
                   scan_corpus, to_graph6, vertex_k_partiteness)
from vklab import search
from vklab.cli import main
from vklab.graphs import Graph, _twin_groups, code_to_adj, code_to_graph
from vklab.partiteness import partiteness_within
from vklab.search import _least_invariant, _partitions_at_most, catalogue, clear_sweep_cache

from conftest import (enumerate_graphs, graph_of_nx, nx_of, random_connected,
                      reference_canonical_search, reference_key_test, scan_by_m)

# connected graphs up to isomorphism on 1..8 vertices
A001349 = [1, 1, 2, 6, 21, 112, 853, 11_117]


def scan_one(params: ClassParams, kind: IndexKind):
    """The report of one class and kind from `scan_catalogue`."""
    return scan_catalogue([params], [kind])[params, kind]


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_graphs(4)) == 64
    assert sum(1 for _ in enumerate_graphs(4, connected_only=True)) == 38
    assert sum(1 for _ in enumerate_graphs(5)) == 1024


def test_enumeration_is_exact_and_deterministic():
    seen = [g for g in enumerate_graphs(4)]
    assert len({g.adj for g in seen}) == 64
    assert [g.adj for g in seen] == [g.adj for g in enumerate_graphs(4)]


def _self_isomorphisms(g: Graph) -> int:
    h = nx_of(g)
    return sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())


def test_catalogue_sizes_match_a001349():
    assert [len(catalogue(n)) for n in range(1, 8)] == A001349[:7]
    level = catalogue(8, workers=2)
    assert len(level) == 11_117
    # every (canonical code, |Aut|) pair of the level, as the exhaustive
    # labeller gave them when the stored codes were canonical codes
    pairs = repr(sorted((canonical_form(code_to_graph(bits, 8)).bits, aut)
                        for bits, aut in level)).encode()
    assert hashlib.sha256(pairs).hexdigest() == \
        "06ead3e9312b60d7734a71724d81c36c921d8677a3ab3826a433ff6c86db9c4d"
    # a serial n = 8 scan over that level, as the CLI printed it with 2 workers
    report = scan_by_m(8, 3, (2,), (IndexKind.ZAGREB_M1,), workers=1)[
        (2, IndexKind.ZAGREB_M1)]
    # and the same report folded by a pool of two
    assert scan_by_m(8, 3, (2,), (IndexKind.ZAGREB_M1,), workers=2)[
        (2, IndexKind.ZAGREB_M1)] == report
    assert report.class_size == 251_349_147
    assert report.optimum == 314
    assert report.optimizer_graph6() == ["G]~v~{"]


def test_extend_labels_only_ties_the_invariant_leaves_open(monkeypatch):
    """One neighbourhood per Aut(P)-orbit, of at most `_key_test`'s `most`
    vertices, gives 2,140 children for the n <= 7 levels (4,159 with no
    cap), and 409 of them tie on the (degree, neighbour-degree sum) key.
    The labeller is called 280 times: once for each of the 54 parents with
    more automorphisms than twin swaps, and once for each of the 226 tied
    children that `_least_invariant` leaves open. The other 183 are
    settled unlabelled: 32 are rejected, as their new vertex is not of
    least invariant, and 151 are kept, as the vertices of least invariant
    are its twins. Each level still comes out whole."""
    calls = []
    real = search._canonical_search
    monkeypatch.setattr(search, "_canonical_search",
                        lambda *args: calls.append(args) or real(*args))
    counts = []
    for n in range(2, 8):
        parents = catalogue(n - 1)
        before = len(calls)
        found = search._extend(n, parents)
        counts.append(len(calls) - before)
        assert tuple(sorted(found)) == catalogue(n)
    assert counts == [0, 0, 2, 9, 43, 226]


@pytest.mark.slow
def test_level_nine_is_whole_and_the_same_for_one_and_two_workers(monkeypatch):
    """Level 9 holds 261,080 classes (A001349) standing for 66,296,291,072
    labelled graphs (A001187), so it passes the in-run certificate, and its
    sorted pairs are the same built in this process and by a pool of two."""
    levels = []
    for workers in (1, 2):
        monkeypatch.setattr(search, "_CATALOGUES", {})
        levels.append(catalogue(9, workers))
    assert levels[0] == levels[1]
    assert len(levels[0]) == 261_080
    assert sum(factorial(9) // aut for _, aut in levels[0]) == 66_296_291_072


def _unfiltered_children(bits, n):
    """(neighbourhood, child) for every one-vertex extension of the graph
    of code `bits` on n vertices, a catalogue parent, new vertex last."""
    for nbhd in range(1, 1 << n):
        adj = [row | 1 << n if nbhd >> u & 1 else row
               for u, row in enumerate(code_to_adj(bits, n))]
        yield nbhd, Graph((*adj, nbhd))


def test_extend_equals_the_unfiltered_reference_level():
    # every extension of every parent on <= 6 vertices, canonicalised by the
    # exhaustive reference search with no pruning and no key test, against
    # `_extend`'s classes canonicalised by that search: the same classes
    # and |Aut|, and no class made twice
    for n in range(2, 8):
        parents = catalogue(n - 1)
        expected = {}
        for bits, _ in parents:
            for _, child in _unfiltered_children(bits, n - 1):
                code, aut = reference_canonical_search(child)
                expected[code] = aut
        canonical = {}
        for bits, aut in search._extend(n, parents):
            code, reference_aut = reference_canonical_search(code_to_graph(bits, n))
            assert reference_aut == aut and code not in canonical
            canonical[code] = aut
        assert canonical == expected


def test_pretest_verdict_matches_its_definition():
    rejected = tied = 0
    for n in range(2, 8):
        for bits, _ in catalogue(n - 1):
            key_test, _ = search._key_test(code_to_adj(bits, n - 1))
            for nbhd, child in _unfiltered_children(bits, n - 1):
                verdict = key_test(nbhd)
                assert verdict == reference_key_test(child), child
                rejected += verdict is None
                tied += bool(verdict)
    assert rejected and tied


def _relabelling_failures(least_invariant, rng) -> int:
    """How often `least_invariant` does not commute with relabelling: over
    200 random connected graphs on 2..9 vertices, each under a random
    relabelling, with each degree class (an isomorphism-invariant vertex
    set) as the tied set, the count of classes whose least members are not
    mapped onto the least members of the relabelled class."""
    failures = 0
    for _ in range(200):
        g = random_connected(rng, rng.randint(2, 9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = graph_of_nx(nx.relabel_nodes(nx_of(g), dict(enumerate(perm))))
        for d in set(g.degrees()):
            tied = [u for u in range(g.n) if g.adj[u].bit_count() == d]
            least = least_invariant(g.adj, sum(1 << u for u in tied))
            image = sum(1 << perm[u] for u in tied if least >> u & 1)
            failures += least_invariant(h.adj, sum(1 << perm[u] for u in tied)) != image
    return failures


def _lowest_index(adj, tied: int) -> int:
    return tied & -tied


def _least_row(adj, tied: int) -> int:
    """The members of `tied` whose adjacency bits are least: a rule that
    depends on labels."""
    rows = [row for u, row in enumerate(adj) if tied >> u & 1]
    return sum(1 << u for u, row in enumerate(adj) if tied >> u & 1 and row == min(rows))


def test_least_invariant_commutes_with_relabelling(rng):
    assert _relabelling_failures(_least_invariant, rng) == 0
    # and the check refuses rules that depend on labels
    assert _relabelling_failures(_lowest_index, rng)
    assert _relabelling_failures(_least_row, rng)


def _least_invariant_then_highest_index(adj, tied: int) -> int:
    return 1 << _least_invariant(adj, tied).bit_length() - 1


@pytest.mark.parametrize("rule", [_lowest_index, _least_invariant_then_highest_index,
                                  _least_row])
def test_a_label_dependent_narrowing_fails_the_certificate(monkeypatch, rule):
    """With the narrowing replaced by a rule that depends on labels, the
    canonical orbit is no longer an isomorphism invariant: some level
    n <= 7 is made with classes missing or twice, or with a wrong |Aut|,
    and the in-run certificate refuses it."""
    monkeypatch.setattr(search, "_CATALOGUES", {})
    monkeypatch.setattr(search, "_least_invariant", rule)
    with pytest.raises(VklabError, match=r"^catalogue level [2-7] stands for \d+ labelled"):
        catalogue(7)


def test_neighbourhoods_are_one_set_per_orbit():
    # one set of each orbit of Aut(P) on nonempty vertex sets, with that
    # orbit's size, for every parent P on <= 6 vertices, against the
    # automorphisms networkx finds; both the parents whose automorphisms
    # are all twin swaps and those the labeller is called for are covered,
    # and so is every cap on the sets' size (n: no cap)
    labelled = 0
    for n in range(1, 7):
        for bits, aut in catalogue(n):
            adj = code_to_adj(bits, n)
            h = nx_of(Graph(tuple(adj)))
            autos = list(nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
            assert len(autos) == aut
            labelled += aut != prod(factorial(len(g)) for g in _twin_groups(adj))
            orbit = {nbhd: frozenset(sum(1 << a[u] for u in range(n) if nbhd >> u & 1)
                                     for a in autos)
                     for nbhd in range(1, 1 << n)}
            for most in range(1, n + 1):
                got = search._neighbourhoods(adj, aut, most)
                small = {o for nbhd, o in orbit.items() if nbhd.bit_count() <= most}
                assert len({orbit[nbhd] for nbhd, _ in got}) == len(got) == len(small)
                assert all(size == len(orbit[nbhd]) and nbhd.bit_count() <= most
                           for nbhd, size in got)
    assert labelled


def test_children_past_the_neighbourhood_cap_fail_the_key_test():
    # the cap is 1 + the least degree of a non-cut vertex (networkx's
    # articulation points are the cut vertices), and every child of a
    # larger neighbourhood is rejected by the key test's definition
    pruned = 0
    for n in range(2, 8):
        for bits, _ in catalogue(n - 1):
            h = nx_of(code_to_graph(bits, n - 1))
            _, most = search._key_test(code_to_adj(bits, n - 1))
            cut = set(nx.articulation_points(h))
            assert most == 1 + min(h.degree(w) for w in h if w not in cut)
            for nbhd, child in _unfiltered_children(bits, n - 1):
                if nbhd.bit_count() > most:
                    assert reference_key_test(child) is None, child
                    pruned += 1
    assert pruned


def test_catalogue_pool_is_capped_at_the_cpu_count(monkeypatch):
    """A cold build with `workers` above the CPU count starts one pool for
    each level from `_POOL_FROM` up, of one process per CPU or per parent,
    whichever is fewer, and a scan of such a level one more; an unknown CPU
    count starts none, and so does a level below `_POOL_FROM`. A recorder
    stands in for the executor and runs its tasks here, so no process is
    started. Each task it is handed holds n, a slice of (int, int) pairs
    and, for a fold, the classes and kinds, never a graph or a code; it
    runs with the catalogue cache emptied and leaves it empty, as a worker
    that never reads the catalogue must."""
    expected = catalogue(6)
    params = [ClassParams(6, m, 2) for m in (1, 2, 3, 4)]
    by_k = search._classes_by_k(params)
    want = scan_catalogue(params)
    pools = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, *iterables):
            tasks = list(zip(*iterables))
            for n, pairs, *rest in tasks:
                assert type(n) is int and type(pairs) is tuple
                assert all(type(pair) is tuple and list(map(type, pair)) == [int, int]
                           for pair in pairs)
                assert rest == ([] if func is search._extend else [by_k, ALL_KINDS])
            cache = search._CATALOGUES
            search._CATALOGUES = {}
            try:
                parts = [func(*task) for task in tasks]
                assert search._CATALOGUES == {}
            finally:
                search._CATALOGUES = cache
            return parts

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                        RecordingExecutor)
    # levels 4, 5 and 6 have 2, 6 and 21 parents, and the scan 21 members
    for cpus, start, asked in ((3, 4, [2, 3, 3, 3]), (None, 4, []), (3, 8, [])):
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(search, "_POOL_FROM", start)
        monkeypatch.setattr(search, "_CATALOGUES", {})
        pools.clear()
        assert catalogue(6, workers=1000) == expected
        assert scan_catalogue(params, workers=1000) == want
        assert pools == asked
    # and either task called directly, on an empty cache
    parents = catalogue(5)
    monkeypatch.setattr(search, "_CATALOGUES", {})
    assert tuple(sorted(search._extend(6, parents))) == expected
    folds = search._fold_level(6, expected, by_k, ALL_KINDS)
    assert search._CATALOGUES == {}
    assert search._reports(by_k, ALL_KINDS, folds,
                           partial(search._canonical_code, 6)) == want


def test_catalogue_classes_are_distinct_and_connected():
    # the stored codes are one labelled member of each class: sorted, and
    # once canonicalised pairwise distinct, as many as A001349 counts, and
    # connected
    for n, count in enumerate(A001349, start=1):
        codes = [bits for bits, _ in catalogue(n, workers=2)]
        assert codes == sorted(set(codes))
        assert len({canonical_form(code_to_graph(bits, n)) for bits in codes}) == count
        assert all(is_connected(code_to_graph(bits, n)) for bits in codes)


def test_stored_aut_matches_networkx_on_a_sample_of_level_8(rng):
    for bits, aut in rng.sample(catalogue(8, workers=2), 150):
        assert aut == _self_isomorphisms(code_to_graph(bits, 8))


@pytest.mark.parametrize("fault", ["drop one class", "double one |Aut|"])
def test_catalogue_certificate_refuses_a_wrong_level(monkeypatch, capfd, fault):
    """A build that drops one class, or doubles one class's |Aut|, fails the
    in-run completeness check at every n <= 6: an error in the API, one
    `error:` line and exit 1 in the CLI, and the level is not cached."""
    extend = search._extend

    def mutant(n, parents):
        (bits, aut), *rest = extend(n, parents)
        return rest if fault == "drop one class" else [(bits, 2 * aut), *rest]

    for n in range(2, 7):
        monkeypatch.setattr(search, "_CATALOGUES", {})
        catalogue(n - 1)
        monkeypatch.setattr(search, "_extend", mutant)
        with pytest.raises(VklabError, match=rf"^catalogue level {n} stands for \d+ "
                                             rf"labelled graphs, not the \d+ connected ones$"):
            catalogue(n)
        assert n not in search._CATALOGUES
        if n >= 3:
            code = main(["scan", "--n", str(n), "--m", "1", "--k", "2", "--kind", "wiener"])
            out, err = capfd.readouterr()
            assert (code, out) == (1, "")
            assert err.startswith(f"error: catalogue level {n} stands for ")
            assert err.count("\n") == 1 and err.endswith(" connected ones\n")
        monkeypatch.setattr(search, "_extend", extend)
    assert catalogue(6) == catalogue(6, workers=2)


def test_scan_canonicalises_each_distinct_optimizer_once(monkeypatch):
    """Stored codes are not canonical, so a scan canonicalises its
    optimizers: once per distinct optimizer per call, plus the one
    construction each class is compared with."""
    params = [ClassParams(6, m, k) for k in (2, 3, 4) for m in range(1, 7 - k)]
    catalogue(6)
    calls = []
    real = search.canonical_form
    monkeypatch.setattr(search, "canonical_form", lambda g: calls.append(g) or real(g))
    reports = scan_catalogue(params)
    distinct = set().union(*(r.optimizer_codes for r in reports.values()))
    items = sum(len(r.optimizer_codes) for r in reports.values())
    assert len(calls) == len(distinct) + len(params) < items


def test_orbit_stabilizer_counts_match_labelled_walk():
    for n in range(2, 7):
        labelled = sum(1 for _ in enumerate_graphs(n, connected_only=True))
        assert sum(factorial(n) // aut for _, aut in catalogue(n)) == labelled
    # past the walk's reach: the connected labelled graph counts of A001187
    assert sum(factorial(7) // aut for _, aut in catalogue(7)) == 1_866_256
    assert sum(factorial(8) // aut for _, aut in catalogue(8, workers=2)) == 251_548_592


def _brute_force_reports(n):
    """(k, m, kind) -> (optimum, optimizer codes, class size, opposite
    extreme) by a plain loop over every labelled connected graph on n
    vertices."""
    graphs = []
    for g in enumerate_graphs(n, connected_only=True):
        metrics = compute_metrics(g)
        graphs.append((g, {kind: evaluate(kind, g, metrics) for kind in ALL_KINDS}))
    out = {}
    for k in range(2, n):
        v_k = [partiteness_within(g.adj, k, range(n - k + 1)) for g, _ in graphs]
        for m in range(1, n - k + 1):
            members = [member for member, v in zip(graphs, v_k) if v <= m]
            for kind in ALL_KINDS:
                pick, other = ((min, max) if direction(kind) is Direction.DECREASING
                               else (max, min))
                best = pick(vals[kind] for _, vals in members)
                codes = frozenset(canonical_form(g)
                                  for g, vals in members if vals[kind] == best)
                out[(k, m, kind)] = (best, codes, len(members),
                                     other(vals[kind] for _, vals in members))
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_scan_catalogue_matches_labelled_brute_force(n):
    expected = _brute_force_reports(n)
    for k in range(2, n):
        reports = scan_by_m(n, k, range(1, n - k + 1))
        for (m, kind), report in reports.items():
            want = expected[(k, m, kind)]
            assert (report.optimum, report.optimizer_codes, report.class_size) \
                == want[:3], (n, k, m, kind)
            assert report.opposite == want[3], (n, k, m, kind)


_VALUES = st.one_of(
    st.lists(st.integers(-4, 4), min_size=1, max_size=30),
    st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
             min_size=1, max_size=30))


@given(_VALUES)
def test_extremum_agrees_with_min_max_and_ties(values):
    ext = search.Extremum()
    for i, value in enumerate(values):
        ext.add(value, i)
    for lowest, pick in ((True, min), (False, max)):
        best = pick(values)
        assert ext.toward(lowest) == (best, [i for i, v in enumerate(values) if v == best])


@given(_VALUES, st.data())
def test_extremum_merge_of_any_split_equals_one_fold(values, data):
    """Merging the folds of consecutive slices, empty ones included, gives
    the extremes and tied items of one fold over all the pairs."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=6)))
    bounds = [0, *cuts, len(values)]
    whole, merged = search.Extremum(), search.Extremum()
    for i, value in enumerate(values):
        whole.add(value, i)
    for lo, hi in zip(bounds, bounds[1:]):
        part = search.Extremum()
        for i in range(lo, hi):
            part.add(values[i], i)
        merged.merge(part)
    for lowest in (True, False):
        (want, want_items), (got, got_items) = whole.toward(lowest), merged.toward(lowest)
        assert got == want and sorted(got_items) == sorted(want_items)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_multi_k_scan_equals_per_k_scans(n):
    """One catalogue pass over every (m, k) of n gives the per-k reports,
    class sizes and opposite extremes included, also for a sparse m set."""
    full = {k: scan_by_m(n, k, range(1, n - k + 1)) for k in range(2, n)}
    every = [ClassParams(n, m, k) for k in range(2, n) for m in range(1, n - k + 1)]
    sparse = [p for p in every if p.m in (1, n - p.k)]
    for params in (every, sparse):
        reports = search.scan_catalogue(params)
        assert set(reports) == {(p, kind) for p in params for kind in ALL_KINDS}
        for (p, kind), report in reports.items():
            assert report == full[p.k][(p.m, kind)], (p, kind)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_catalogue_and_reports_invariant_under_parent_splits(data):
    parents = catalogue(5)
    reference = catalogue(6)
    want = scan_by_m(6, 2, (1, 2, 3, 4))
    order = data.draw(st.permutations(parents))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(order)), max_size=6)))
    chunks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]
    found = []
    for chunk in chunks:
        found += search._extend(6, chunk)
    merged = tuple(sorted(found))
    assert merged == reference
    try:
        search._CATALOGUES[6] = merged
        assert scan_by_m(6, 2, (1, 2, 3, 4)) == want
    finally:
        search._CATALOGUES[6] = reference


def _merged(folds, parts):
    """`folds` with each `search._fold` result of `parts` merged in, in order."""
    for part in parts:
        search._merge_folds(folds, part)
    return folds


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_scan_folds_of_any_chunking_merge_to_the_one_pass_reports(data):
    """Cutting level 6 at any points, folding each chunk as a pool worker
    would, from (code bits, |Aut|) pairs, and merging the folds in order
    gives the one-pass reports of every m, k in {2, 3, 4} and kind. Runs in
    this process."""
    level = catalogue(6)
    params = [ClassParams(6, m, k) for k in (2, 3, 4) for m in range(1, 7 - k)]
    want = scan_catalogue(params)
    by_k = search._classes_by_k(params)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(level)), max_size=6)))
    parts = [search._fold_level(6, level[lo:hi], by_k, ALL_KINDS)
             for lo, hi in zip([0, *cuts], [*cuts, len(level)])]
    folds = _merged(search._fold((), by_k, ALL_KINDS), parts)
    assert search._reports(by_k, ALL_KINDS, folds,
                           partial(search._canonical_code, 6)) == want


def test_catalogue_built_once_for_every_worker_count(monkeypatch):
    monkeypatch.setattr(search, "_POOL_FROM", 6)
    clear_sweep_cache()
    calls = []
    extend = search._extend
    monkeypatch.setattr(search, "_extend",
                        lambda n, parents: calls.append((n, len(parents)))
                        or extend(n, parents))
    first = scan_by_m(6, 2, (1, 2))
    # levels 2..6, each from all its parents once, in this process
    assert calls == [(2, 1), (3, 1), (4, 2), (5, 6), (6, 21)]
    # the second scan folds level 6 in a pool and builds nothing
    second = scan_by_m(6, 2, (1, 2), workers=2)
    assert calls == [(2, 1), (3, 1), (4, 2), (5, 6), (6, 21)]
    assert first == second


def test_catalogue_identical_for_every_worker_count(monkeypatch):
    monkeypatch.setattr(search, "_POOL_FROM", 6)
    built = {}
    for workers in (1, 2, 3):
        clear_sweep_cache()
        built[workers] = catalogue(6, workers)
    assert built[1] == built[2] == built[3]


@contextmanager
def _deadline(seconds):
    """Fail with a TimeoutError, instead of hanging, when a pool does not
    return within `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"the pool did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_catalogue_slices_merge_to_the_serial_level_in_a_spawned_pool():
    """Workers that start a fresh interpreter hold no catalogue, and need
    none: the children they find for level 5's halves merge to the serial
    level 6, codes and |Aut| alike, and the folds of level 6's halves give
    the serial scan's reports."""
    params = [ClassParams(6, m, 2) for m in (1, 2, 3, 4)]
    by_k = search._classes_by_k(params)
    parents, pairs = catalogue(5), catalogue(6)
    ctx = multiprocessing.get_context("spawn")
    with _deadline(120), concurrent.futures.process.ProcessPoolExecutor(
            2, mp_context=ctx) as pool:
        found = []
        for part in pool.map(search._extend, [6, 6], [parents[0::2], parents[1::2]]):
            found += part
        assert tuple(sorted(found)) == pairs
        parts = pool.map(search._fold_level, [6, 6], [pairs[0::2], pairs[1::2]],
                         [by_k] * 2, [ALL_KINDS] * 2)
        folds = _merged(search._fold((), by_k, ALL_KINDS), parts)
    assert search._reports(by_k, ALL_KINDS, folds, partial(search._canonical_code, 6)) == \
        scan_catalogue(params)


def _exit_at_once(*task):
    """Stands in for a pool task, `search._extend` or `search._fold_level`:
    the worker dies at once, as a killed one would. Either also runs in
    this process, so it is patched in only while nothing calls it here."""
    os._exit(1)


def test_failed_catalogue_worker_is_an_error_not_a_hang(monkeypatch, capfd):
    monkeypatch.setattr(search, "_POOL_FROM", 6)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search, "_CATALOGUES", {})
    # level 5 is built here first, so only level 6 reaches the pool
    catalogue(5)
    extend = search._extend
    monkeypatch.setattr(search, "_extend", _exit_at_once)
    argv = ["scan", "--n", "6", "--m", "2", "--k", "2", "--kind", "wiener",
            "--workers", "2"]
    with _deadline(60):
        with pytest.raises(VklabError, match="building level 6"):
            catalogue(6, workers=2)
        code = main(argv)
    out, err = capfd.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: a catalogue worker died while building level 6\n"
    assert 6 not in search._CATALOGUES
    # a fold worker that dies, over a level built in this process
    monkeypatch.setattr(search, "_extend", extend)
    catalogue(6)
    monkeypatch.setattr(search, "_fold_level", _exit_at_once)
    with _deadline(60):
        with pytest.raises(VklabError, match="scanning level 6"):
            scan_catalogue([ClassParams(6, 2, 2)], workers=2)
        code = main(argv)
    out, err = capfd.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: a scan worker died while scanning level 6\n"


def test_nonpositive_workers_rejected():
    for workers in (0, -1):
        with pytest.raises(InvalidParamsError):
            scan_catalogue([ClassParams(5, 1, 2)], workers=workers)


def test_empty_scan_inputs_are_package_errors():
    """No class, no kind, or a corpus without a class member certifies nothing."""
    with pytest.raises(InvalidParamsError):
        scan_by_m(5, 2, ())
    with pytest.raises(InvalidParamsError):
        scan_by_m(5, 2, (1,), kinds=())
    with pytest.raises(InvalidParamsError):
        search.scan_catalogue([])
    with pytest.raises(InvalidParamsError):  # one pass is one catalogue level
        search.scan_catalogue([ClassParams(5, 1, 2), ClassParams(6, 1, 2)])
    # a blank line, K4 (wrong order) and K5 minus an edge (v_2 = 2, not <= 1)
    corpus = ["", to_graph6(graph_of_nx(nx.complete_graph(4))), "D^{"]
    with pytest.raises(InvalidParamsError):
        scan_corpus(load_graph6_corpus(corpus), ClassParams(5, 1, 2), IndexKind.WIENER)


@pytest.mark.parametrize("kinds,message", [
    ((), "no index kind"), ((IndexKind.WIENER, "harary"), "'harary'"),
    (("wiener",), "'wiener'"), ((None,), "None")])
def test_scan_kinds_are_checked_before_any_graph_work(kinds, message, monkeypatch):
    """No kind, or a kind that is not an IndexKind (its value as text, say),
    is an InvalidParamsError that names it, from every scan entry point,
    before a catalogue level is built or a family member measured."""
    monkeypatch.setattr(search, "_CATALOGUES", {})
    monkeypatch.setattr(search, "join_family_graph", None)  # any call would fail
    p = ClassParams(5, 1, 2)
    with pytest.raises(InvalidParamsError, match=message):
        scan_catalogue([p], kinds)
    with pytest.raises(InvalidParamsError, match=message):
        family_optima(p, kinds)
    assert search._CATALOGUES == {}
    if kinds:
        lines = [to_graph6(graph_of_nx(nx.complete_graph(5)))]
        with pytest.raises(InvalidParamsError, match=message):
            scan_corpus(load_graph6_corpus(lines), p, kinds[-1])


def test_corpus_round_trip():
    lines = [to_graph6(g) for g in enumerate_graphs(4, connected_only=True)]
    parsed = list(load_graph6_corpus(lines))
    assert len(parsed) == 38
    assert all(is_connected(g) for g in parsed)


def test_corpus_empty_and_blank_lines():
    assert list(load_graph6_corpus([])) == []
    assert list(load_graph6_corpus(["", "  ", "\n"])) == []


def test_corpus_strict_aborts_with_line_number():
    with pytest.raises(Graph6ParseError) as exc_info:
        list(load_graph6_corpus(["garbage!"]))
    assert exc_info.value.line == 1
    with pytest.raises(Graph6ParseError) as exc_info:
        list(load_graph6_corpus(["A_", "A?", "garbage!", "", ">"]))
    assert exc_info.value.line == 3


def test_corpus_lenient_reports_and_continues():
    errors = []
    graphs = list(load_graph6_corpus(["A_", "garbage!", "A?", "", "A", ">", "A_"], errors))
    assert graphs == [parse_graph6("A_"), parse_graph6("A?"), parse_graph6("A_")]
    assert errors == [(2, "expected 130 data characters for n=40, got 7"),
                      (5, "expected 1 data characters for n=2, got 0"),
                      (6, "invalid character '>'")]


def test_scan_small_class_examples():
    report = scan_one(ClassParams(5, 1, 2), IndexKind.HARARY)
    assert report.optimum == 9
    assert report.matches_construction and report.matches_closed_form
    assert len(report.optimizer_codes) == 1
    report = scan_one(ClassParams(6, 4, 2), IndexKind.WIENER)
    assert report.optimum == 15
    k6 = graph_of_nx(nx.complete_graph(6))
    assert report.optimizer_codes == frozenset({canonical_form(k6)})


def test_scan_optimizer_soundness():
    report = scan_one(ClassParams(5, 2, 2), IndexKind.RDD)
    for code in report.optimizer_codes:
        from vklab.graphs import code_to_graph
        g = code_to_graph(code.bits, code.n)
        assert evaluate(IndexKind.RDD, g) == report.optimum


def test_scan_known_tie_at_5_1_2():
    """Eccentricity distance sum ties between the balanced [2,2] member and
    the singleton-part [3,1] member: uniqueness genuinely fails there."""
    report = scan_one(ClassParams(5, 1, 2), IndexKind.ECC_DIST_SUM)
    assert report.optimum == 44
    assert len(report.optimizer_codes) == 2
    assert not report.matches_construction
    expected = {canonical_form(join_family_graph(1, [2, 2])),
                canonical_form(join_family_graph(1, [3, 1]))}
    assert set(report.optimizer_codes) == expected


def test_scan_determinism_across_workers():
    clear_sweep_cache()
    reports = {}
    for workers in (1, 2, 3):
        reports[workers] = scan_by_m(5, 2, (1, 2, 3), workers=workers)
    for key in reports[1]:
        r1, r2, r3 = reports[1][key], reports[2][key], reports[3][key]
        assert r1 == r2 == r3


def test_scan_cap():
    # the whole message: it names the supported range and no opt-in
    message = r"^scans support 2 <= n <= 9, got 10$"
    with pytest.raises(SizeCapError, match=message):
        scan_one(ClassParams(10, 2, 2), IndexKind.WIENER)
    with pytest.raises(SizeCapError, match=message):
        scan_by_m(10, 3, (2,), workers=2)


def test_scan_corpus_agrees_with_enumeration():
    # non-isomorphic corpus for n = 6: one representative per connected class
    seen = {}
    for g in enumerate_graphs(6, connected_only=True):
        seen.setdefault(canonical_form(g), g)
    assert len(seen) == 112
    lines = [to_graph6(g) for g in seen.values()]
    # and lines the scan skips: a disconnected graph and one of the wrong order
    lines += [to_graph6(graph_of_nx(h)) for h in (nx.empty_graph(6), nx.complete_graph(5))]
    by_codes = scan_by_m(6, 2, range(1, 5))
    for (m, kind), want in by_codes.items():
        got = scan_corpus(load_graph6_corpus(lines), ClassParams(6, m, 2), kind)
        assert (got.optimum, got.optimizer_codes, got.opposite) == \
            (want.optimum, want.optimizer_codes, want.opposite), (m, kind)
        assert got.class_size == sum(vertex_k_partiteness(g, 2) <= m for g in seen.values())


def test_no_silent_mismatches_below_seven():
    """Full n <= 6 sweep across every k: the scan's optimizer is the balanced
    construction everywhere except a frozen set of eccentricity-kind rows,
    each displaced (or tied) by a singleton-part family member -- the
    universal-vertex regime documented on the closed forms. Any new
    deviation fails this test."""
    expected = {
        (5, 1, 2, IndexKind.CONN_ECC): (Fraction(11), [(3, 1)]),
        (5, 1, 2, IndexKind.ECC_DIST_SUM): (44, [(3, 1), (2, 2)]),
        (6, 1, 2, IndexKind.CONN_ECC): (Fraction(14), [(4, 1)]),
        (6, 1, 3, IndexKind.CONN_ECC): (Fraction(39, 2), [(3, 1, 1)]),
        (6, 1, 3, IndexKind.ECC_DIST_SUM): (57, [(3, 1, 1)]),
        (6, 2, 2, IndexKind.CONN_ECC): (Fraction(39, 2), [(3, 1)]),
        (6, 2, 2, IndexKind.ECC_DIST_SUM): (57, [(3, 1)]),
    }
    found = {}
    for n in range(4, 7):
        for k in range(2, n - 1):
            m_values = tuple(range(1, n - k + 1))
            reports = scan_by_m(n, k, m_values, workers=2)
            for (m, kind), report in reports.items():
                if report.matches_construction:
                    continue
                value, sizes_lists = family_optima(ClassParams(n, m, k), (kind,))[kind]
                # deviation fully explained by the join family: the scan's
                # optimizers are exactly the family winners, and a singleton
                # part (universal vertex) is involved
                assert value == report.optimum
                winners = frozenset(canonical_form(join_family_graph(m, list(s)))
                                    for s in sizes_lists)
                assert winners == report.optimizer_codes
                assert any(min(s) == 1 for s in sizes_lists)
                found[(n, m, k, kind)] = (report.optimum, sizes_lists)
    assert found == expected


def test_family_scan_partitions():
    assert sorted(_partitions_at_most(4, 2)) == [(2, 2), (3, 1), (4,)]
    optima = family_optima(ClassParams(6, 2, 2), (IndexKind.WIENER, IndexKind.ECC_DIST_SUM))
    assert optima == {IndexKind.WIENER: (17, [(2, 2)]), IndexKind.ECC_DIST_SUM: (57, [(3, 1)])}


def test_fuzz_zero_violations_smoke():
    report = monotonicity_fuzz(IndexKind.WIENER, 100, (4, 7), seed=7)
    assert report.violations == 0 and report.trials == 100
    report = monotonicity_fuzz(IndexKind.ZAGREB_M2, 100, (4, 7), seed=7)
    assert report.violations == 0


def test_fuzz_deterministic_under_seed():
    a = monotonicity_fuzz(IndexKind.HARARY, 50, (4, 6), seed=3)
    b = monotonicity_fuzz(IndexKind.HARARY, 50, (4, 6), seed=3)
    assert (a.violations, a.resamples, a.counterexamples) == \
           (b.violations, b.resamples, b.counterexamples)


def test_fuzz_complete_graph_resampling():
    # tiny n makes complete samples likely, exercising the resample path
    report = monotonicity_fuzz(IndexKind.WIENER, 200, (3, 4), seed=11)
    assert report.violations == 0
    assert report.resamples > 0


def test_fuzz_rejects_degenerate_n_range():
    with pytest.raises(ValueError):
        monotonicity_fuzz(IndexKind.WIENER, 10, (2, 3), seed=1)
    # past 64 vertices no graph can be built: refused before any trial runs
    with pytest.raises(InvalidParamsError):
        monotonicity_fuzz(IndexKind.WIENER, 1, (64, 65), seed=3)


def test_scan_reports_class_size():
    reports = scan_by_m(5, 2, (1, 2, 3))
    assert reports[(1, IndexKind.WIENER)].class_size == 667
    assert reports[(2, IndexKind.WIENER)].class_size == 727
    assert reports[(3, IndexKind.WIENER)].class_size == 728
