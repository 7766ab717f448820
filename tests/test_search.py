"""Enumeration, corpus ingestion, scans, and the monotonicity fuzzer."""

import hashlib
import multiprocessing
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vklab import (ALL_KINDS, ClassParams, Direction, Graph6ParseError, IndexKind,
                   InvalidParamsError, SizeCapError, canonical_form, complete_graph,
                   compute_metrics, direction, empty_graph, evaluate,
                   family_scan, is_connected, join_family_graph,
                   load_graph6_corpus, monotonicity_fuzz, parse_graph6, scan_class,
                   scan_corpus, scan_many, to_graph6, vertex_k_partiteness)
from vklab import search
from vklab.graphs import Graph, _twin_groups, code_to_graph
from vklab.partiteness import partiteness_within
from vklab.search import _partitions_at_most, catalogue, clear_sweep_cache

from conftest import (enumerate_graphs, reference_canonical_search,
                      reference_pretest_rejects)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_graphs(4)) == 64
    assert sum(1 for _ in enumerate_graphs(4, connected_only=True)) == 38
    assert sum(1 for _ in enumerate_graphs(5)) == 1024


def test_enumeration_is_exact_and_deterministic():
    seen = [g for g in enumerate_graphs(4)]
    assert len({g.adj for g in seen}) == 64
    assert [g.adj for g in seen] == [g.adj for g in enumerate_graphs(4)]


def test_catalogue_sizes_match_a001349():
    assert [len(catalogue(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    level = catalogue(8, workers=2)
    assert len(level) == 11_117
    # every (code, |Aut|) pair of the level, as the exhaustive labeller gave them
    pairs = repr(sorted((entry.code.bits, entry.aut) for entry in level)).encode()
    assert hashlib.sha256(pairs).hexdigest() == \
        "06ead3e9312b60d7734a71724d81c36c921d8677a3ab3826a433ff6c86db9c4d"
    # a serial n = 8 scan over that level, as the CLI printed it with 2 workers
    report = scan_many(8, 3, (2,), (IndexKind.ZAGREB_M1,), workers=1)[
        (2, IndexKind.ZAGREB_M1)]
    assert report.class_size == 251_349_147
    assert report.optimum == 314
    assert report.optimizer_graph6() == ["G]~v~{"]


def test_extend_canonicalises_only_min_degree_children(monkeypatch):
    """Twin-orbit pruning and the (degree, neighbour-degree sum) pre-test
    leave 1,322 of the 7,815 children of the n <= 7 levels to canonicalise,
    and each level still comes out whole."""
    calls = []
    real = search._canonical_search
    monkeypatch.setattr(search, "_canonical_search", lambda g: calls.append(g) or real(g))
    counts = []
    for n in range(2, 8):
        parents = catalogue(n - 1)
        before = len(calls)
        found = search._extend(parents)
        counts.append(len(calls) - before)
        assert found == {e.code.bits: e.aut for e in catalogue(n)}
    assert counts == [1, 2, 6, 24, 137, 1_152]


def _unfiltered_children(parent):
    """Every one-vertex extension of a catalogue parent, new vertex last."""
    g = parent.graph
    for nbhd in range(1, 1 << g.n):
        adj = [row | 1 << g.n if nbhd >> u & 1 else row for u, row in enumerate(g.adj)]
        yield Graph((*adj, nbhd))


def test_extend_equals_the_unfiltered_reference_level():
    # every extension of every parent on <= 6 vertices, canonicalised by the
    # exhaustive reference search with no pruning and no pre-test
    for n in range(2, 8):
        parents = catalogue(n - 1)
        expected = {}
        for parent in parents:
            for child in _unfiltered_children(parent):
                bits, aut = reference_canonical_search(child)
                expected[bits] = aut
        assert search._extend(parents) == expected


def test_pretest_verdict_matches_its_definition():
    rejected = 0
    for n in range(2, 8):
        for parent in catalogue(n - 1):
            for child in _unfiltered_children(parent):
                verdict = search._lighter_non_cut_vertex(list(child.adj))
                assert verdict == reference_pretest_rejects(child), child
                rejected += verdict
    assert rejected


def test_neighbourhoods_are_twin_prefix_sets():
    # one set per orbit of the twin-swap subgroup: every nonempty set, each
    # twin group's share replaced by that many of its lowest vertices
    for n in range(1, 7):
        for parent in catalogue(n):
            adj = parent.graph.adj
            groups = _twin_groups(adj)
            reps = set()
            for nbhd in range(1, 1 << n):
                for group in groups:
                    inside = [u for u in group if nbhd >> u & 1]
                    nbhd &= ~sum(1 << u for u in inside)
                    nbhd |= sum(1 << u for u in group[:len(inside)])
                reps.add(nbhd)
            got = search._neighbourhoods(adj)
            assert len(got) == len(reps) and set(got) == reps


def test_catalogue_pool_is_capped_at_the_cpu_count(monkeypatch):
    """A `workers` above the CPU count asks for one process per CPU, and
    an unknown CPU count for none; a recorder stands in for the pool, so
    no process is started."""
    expected = catalogue(6)
    pools = []

    class RecordingPool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, func, items):
            return map(func, items)

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", RecordingPool)
    for cpus, asked in ((3, [3]), (None, [])):
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(search, "_CATALOGUES", {})
        pools.clear()
        assert catalogue(6, workers=1000) == expected
        assert pools == asked


def test_catalogue_entries_are_canonical_and_connected():
    for n in range(1, 7):
        codes = [entry.code.bits for entry in catalogue(n)]
        assert codes == sorted(set(codes))
        for entry in catalogue(n):
            assert entry.graph == code_to_graph(entry.code.bits, n)
            assert canonical_form(entry.graph) == entry.code
            assert is_connected(entry.graph)


def test_orbit_stabilizer_counts_match_labelled_walk():
    for n in range(2, 7):
        labelled = sum(1 for _ in enumerate_graphs(n, connected_only=True))
        assert sum(factorial(n) // e.aut for e in catalogue(n)) == labelled
    # past the walk's reach: the connected labelled graph counts of A001187
    assert sum(factorial(7) // e.aut for e in catalogue(7)) == 1_866_256
    assert sum(factorial(8) // e.aut for e in catalogue(8, workers=2)) == 251_548_592


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
def test_scan_many_matches_labelled_brute_force(n):
    expected = _brute_force_reports(n)
    for k in range(2, n):
        reports = scan_many(n, k, range(1, n - k + 1))
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


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_catalogue_and_reports_invariant_under_parent_splits(data):
    parents = catalogue(5)
    reference = catalogue(6)
    want = scan_many(6, 2, (1, 2, 3, 4))
    order = data.draw(st.permutations(parents))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(order)), max_size=6)))
    chunks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]
    merged = search._merge([search._extend(chunk) for chunk in chunks], 6)
    assert merged == reference
    try:
        search._CATALOGUES[6] = merged
        assert scan_many(6, 2, (1, 2, 3, 4)) == want
    finally:
        search._CATALOGUES[6] = reference


def test_catalogue_built_once_for_every_worker_count(monkeypatch):
    clear_sweep_cache()
    calls = []
    extend = search._extend
    monkeypatch.setattr(search, "_extend",
                        lambda parents: calls.append(len(parents)) or extend(parents))
    first = scan_many(6, 2, (1, 2))
    assert calls == [1, 1, 2, 6, 21]  # levels 2..6, each from its parents once
    # a rebuild would hand the unpicklable lambda to the pool and fail
    second = scan_many(6, 2, (1, 2), workers=2)
    assert calls == [1, 1, 2, 6, 21]
    assert first == second


def test_catalogue_identical_for_every_worker_count():
    built = {}
    for workers in (1, 2, 3):
        clear_sweep_cache()
        built[workers] = catalogue(6, workers)
    assert built[1] == built[2] == built[3]


def test_nonpositive_workers_rejected():
    for workers in (0, -1):
        with pytest.raises(InvalidParamsError):
            scan_many(5, 2, (1,), workers=workers)
        with pytest.raises(InvalidParamsError):
            scan_class(ClassParams(5, 1, 2), IndexKind.WIENER, workers=workers)


def test_empty_scan_inputs_are_package_errors():
    """No m, no kind, or a corpus without a class member certifies nothing."""
    with pytest.raises(InvalidParamsError):
        scan_many(5, 2, ())
    with pytest.raises(InvalidParamsError):
        scan_many(5, 2, (1,), kinds=())
    # a blank line, K4 (wrong order) and K5 minus an edge (v_2 = 2, not <= 1)
    corpus = ["", to_graph6(complete_graph(4)), "D^{"]
    with pytest.raises(InvalidParamsError):
        scan_corpus(load_graph6_corpus(corpus), ClassParams(5, 1, 2), IndexKind.WIENER)


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
    report = scan_class(ClassParams(5, 1, 2), IndexKind.HARARY)
    assert report.optimum == 9
    assert report.matches_construction and report.matches_closed_form
    assert len(report.optimizer_codes) == 1
    report = scan_class(ClassParams(6, 4, 2), IndexKind.WIENER)
    assert report.optimum == 15
    assert report.optimizer_codes == frozenset({canonical_form(complete_graph(6))})


def test_scan_optimizer_soundness():
    report = scan_class(ClassParams(5, 2, 2), IndexKind.RDD)
    for code in report.optimizer_codes:
        from vklab.graphs import code_to_graph
        g = code_to_graph(code.bits, code.n)
        assert evaluate(IndexKind.RDD, g) == report.optimum


def test_scan_known_tie_at_5_1_2():
    """Eccentricity distance sum ties between the balanced [2,2] member and
    the singleton-part [3,1] member: uniqueness genuinely fails there."""
    report = scan_class(ClassParams(5, 1, 2), IndexKind.ECC_DIST_SUM)
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
        reports[workers] = scan_many(5, 2, (1, 2, 3), workers=workers)
    for key in reports[1]:
        r1, r2, r3 = reports[1][key], reports[2][key], reports[3][key]
        assert r1 == r2 == r3


def test_scan_cap():
    # the whole message: it names the supported range and no opt-in
    message = r"^scans support 2 <= n <= 9, got 10$"
    with pytest.raises(SizeCapError, match=message):
        scan_class(ClassParams(10, 2, 2), IndexKind.WIENER)
    with pytest.raises(SizeCapError, match=message):
        scan_many(10, 3, (2,), workers=2)


def test_scan_corpus_agrees_with_enumeration():
    # non-isomorphic corpus for n = 6: one representative per connected class
    seen = {}
    for g in enumerate_graphs(6, connected_only=True):
        seen.setdefault(canonical_form(g), g)
    assert len(seen) == 112
    lines = [to_graph6(g) for g in seen.values()]
    # and lines the scan skips: a disconnected graph and one of the wrong order
    lines += [to_graph6(empty_graph(6)), to_graph6(complete_graph(5))]
    by_codes = scan_many(6, 2, range(1, 5))
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
            reports = scan_many(n, k, m_values, workers=2)
            for (m, kind), report in reports.items():
                if report.matches_construction:
                    continue
                value, sizes_lists = family_scan(ClassParams(n, m, k), kind)
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
    value, sizes = family_scan(ClassParams(6, 2, 2), IndexKind.WIENER)
    assert value == 17 and sizes == [(2, 2)]
    value, sizes = family_scan(ClassParams(6, 2, 2), IndexKind.ECC_DIST_SUM)
    assert value == 57 and sizes == [(3, 1)]


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
    reports = scan_many(5, 2, (1, 2, 3))
    assert reports[(1, IndexKind.WIENER)].class_size == 667
    assert reports[(2, IndexKind.WIENER)].class_size == 727
    assert reports[(3, IndexKind.WIENER)].class_size == 728
