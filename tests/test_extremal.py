"""Construction, closed forms (printed warts included), and the balancing
shift against the printed differences in conftest."""

import itertools
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vklab import (ALL_KINDS, ClassParams, Direction, GraphSizeError, IndexKind,
                   InvalidParamsError, closed_form, closed_form_bipartite, compute_metrics,
                   direction, evaluate, extremal_graph, join_family_graph, part_sizes,
                   vertex_k_partiteness)
from vklab.extremal import EVEN, ODD
from vklab.indices import ECCENTRICITY_KINDS

from conftest import SHIFT_DIFFERENCE, join_of, nx_of, zagreb_m2_corrected

# the printed k = 2 corollary lines with a typo: (kind, parity of n - m)
COROLLARY_ERRATA = {(IndexKind.ECC_DIST_SUM, ODD), (IndexKind.ADJ_ECC_DIST_SUM, ODD)}


def test_part_sizes_examples():
    spec = part_sizes(ClassParams(6, 2, 2))
    assert (spec.s, spec.t, spec.sizes) == (2, 0, (2, 2))
    spec = part_sizes(ClassParams(6, 1, 2))
    assert (spec.s, spec.t, spec.sizes) == (2, 1, (2, 3))
    spec = part_sizes(ClassParams(10, 1, 4))
    assert (spec.s, spec.t, spec.sizes) == (2, 1, (2, 2, 2, 3))
    assert max(spec.sizes) - min(spec.sizes) <= 1


def test_join_family_graph():
    g = join_family_graph(2, [2, 2])
    assert g.n == 6 and g.edge_count() == 13
    assert nx.is_isomorphic(nx_of(join_family_graph(1, [1, 1, 1])), nx.complete_graph(4))
    assert nx.is_isomorphic(nx_of(join_family_graph(4, [1, 1])), nx.complete_graph(6))
    with pytest.raises(InvalidParamsError):
        join_family_graph(0, [2, 2])
    with pytest.raises(InvalidParamsError):
        join_family_graph(2, [])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_join_family_graph_equals_the_validated_join(data):
    """The directly written rows are the labelled graph networkx builds for
    K_m joined onto K(sizes), for every clique size m >= 1 and part sizes
    with n <= 64."""
    n = data.draw(st.integers(2, 64))
    m = data.draw(st.integers(1, n - 1))
    cuts = sorted(set(data.draw(st.lists(st.integers(1, n - m - 1), max_size=8))
                      if n - m > 1 else []))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n - m])]
    assert join_family_graph(m, sizes) == join_of(m, sizes)


def test_join_family_graph_above_64_vertices_is_an_error():
    for m, sizes in ((1, [64]), (60, [2, 3]), (65, [1])):
        with pytest.raises(GraphSizeError):
            join_family_graph(m, sizes)


def test_extremal_graph_isomorphism_examples():
    assert nx.is_isomorphic(nx_of(extremal_graph(ClassParams(6, 2, 2))),
                            nx_of(join_of(2, [2, 2])))
    assert nx.is_isomorphic(nx_of(extremal_graph(ClassParams(6, 1, 2))),
                            nx.complete_multipartite_graph(1, 2, 3))
    assert nx.is_isomorphic(nx_of(extremal_graph(ClassParams(6, 4, 2))), nx.complete_graph(6))


def test_vertex_order_clique_first():
    g = extremal_graph(ClassParams(6, 2, 2))
    assert g.degrees() == [5, 5, 4, 4, 4, 4]


def test_closed_form_worked_values():
    p = ClassParams(6, 2, 2)
    assert closed_form(IndexKind.WIENER, p).value == 17
    assert closed_form(IndexKind.CONN_ECC, p).value == 18
    assert closed_form(IndexKind.ZAGREB_M2, p).value == 185
    assert evaluate(IndexKind.ZAGREB_M2, extremal_graph(p)) == 249
    assert zagreb_m2_corrected(2, part_sizes(p).sizes) == 249


def test_closed_form_matches_oracle_in_regime():
    """Construction consistency on the small grid, every kind but the M2 line."""
    for n in range(4, 13):
        for k in (2, 3, 4):
            for m in range(1, n - k + 1):
                p = ClassParams(n, m, k)
                if part_sizes(p).s < 2:
                    continue
                g = extremal_graph(p)
                for kind in ALL_KINDS:
                    oracle = evaluate(kind, g)
                    if kind is IndexKind.ZAGREB_M2:
                        assert zagreb_m2_corrected(m, part_sizes(p).sizes) == oracle
                        assert closed_form(kind, p).value != oracle
                    else:
                        cf = closed_form(kind, p)
                        assert cf.value == oracle, (kind, n, m, k)
                        assert not cf.regime_restricted


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closed_forms_match_evaluation_up_to_64_vertices(data):
    """The printed forms in regime and the corrected M2 form against direct
    evaluation on the construction, at random (n, m, k) up to n = 64."""
    n = data.draw(st.integers(3, 64), label="n")
    k = data.draw(st.integers(2, n - 1), label="k")
    p = ClassParams(n, data.draw(st.integers(1, n - k), label="m"), k)
    g = extremal_graph(p)
    metrics = compute_metrics(g)
    for kind in ALL_KINDS:
        oracle = evaluate(kind, g, metrics)
        if kind is IndexKind.ZAGREB_M2:
            assert zagreb_m2_corrected(p.m, part_sizes(p).sizes) == oracle
            continue
        cf = closed_form(kind, p)
        assert cf.regime_restricted == (kind in ECCENTRICITY_KINDS
                                        and part_sizes(p).s < 2)
        if not cf.regime_restricted:
            assert cf.value == oracle, (kind, p)


def test_closed_form_regime_flags():
    p = ClassParams(6, 3, 2)  # sizes (1, 2): universal part vertex
    for kind in ALL_KINDS:
        cf = closed_form(kind, p)
        assert cf.regime_restricted == (kind in ECCENTRICITY_KINDS)
    # flagged values genuinely differ from the construction
    g = extremal_graph(p)
    assert closed_form(IndexKind.ECC_DIST_SUM, p).value == 49
    assert evaluate(IndexKind.ECC_DIST_SUM, g) == 44


# ---------------------------------------------------------------------------
# bipartite-case corollary forms
# ---------------------------------------------------------------------------

def test_bipartite_worked_values():
    assert closed_form_bipartite(IndexKind.WIENER, 6, 2).value == 17
    assert closed_form_bipartite(IndexKind.WIENER, 6, 1).value == 19
    assert closed_form_bipartite(IndexKind.HARARY, 5, 1).value == 9


def test_bipartite_consistency_with_theorem_forms():
    """The k = 2 corollary lines restate the theorem closed forms, except the
    two documented odd-case typos (adjacent-eccentric distance sum's garbled
    factor; eccentricity distance sum's trailing constant)."""
    suspects = set()
    for n in range(4, 13):
        for m in range(1, n - 1):
            p = ClassParams(n, m, 2)
            parity = EVEN if (n - m) % 2 == 0 else ODD
            for kind in ALL_KINDS:
                cor = closed_form_bipartite(kind, n, m).value
                thm = (zagreb_m2_corrected(m, part_sizes(p).sizes)
                       if kind is IndexKind.ZAGREB_M2 else closed_form(kind, p).value)
                if cor != thm:
                    suspects.add((kind, parity))
                    assert (kind, parity) in COROLLARY_ERRATA, (kind, n, m)
    assert suspects == COROLLARY_ERRATA


def test_bipartite_m2_matches_corrected_not_printed_theorem():
    # the corollary's second-Zagreb line is right; the theorem's line is not
    cor = closed_form_bipartite(IndexKind.ZAGREB_M2, 6, 2)
    assert cor.value == 249 and (IndexKind.ZAGREB_M2, EVEN) not in COROLLARY_ERRATA


def test_bipartite_ecc_dist_sum_odd_constant_erratum():
    # printed odd case is short by 2: the trailing constant should be +1
    cor = closed_form_bipartite(IndexKind.ECC_DIST_SUM, 6, 1)
    thm = closed_form(IndexKind.ECC_DIST_SUM, ClassParams(6, 1, 2))
    oracle = evaluate(IndexKind.ECC_DIST_SUM, extremal_graph(ClassParams(6, 1, 2)))
    assert cor.value == 69 and (IndexKind.ECC_DIST_SUM, ODD) in COROLLARY_ERRATA
    assert thm.value == oracle == 71


# ---------------------------------------------------------------------------
# the balancing shift: one vertex from part i to part j
# ---------------------------------------------------------------------------

def _shifted(sizes, i, j):
    sizes = list(sizes)
    sizes[i] -= 1
    sizes[j] += 1
    return sizes


def test_balancedness_termination(rng):
    for _ in range(50):
        k = rng.randint(2, 5)
        total = rng.randint(k, 20)
        sizes = _random_composition(rng, total, k)
        params = ClassParams(total + 1, 1, k)
        target = sorted(part_sizes(params).sizes)
        steps = 0
        while max(sizes) - min(sizes) > 1:
            i = sizes.index(max(sizes))
            j = sizes.index(min(sizes))
            sizes = _shifted(sizes, i, j)
            steps += 1
            assert steps < 100
        assert sorted(sizes) == target


def _random_composition(rng, total, k):
    cuts = sorted(rng.sample(range(1, total), k - 1)) if k > 1 else []
    parts = []
    prev = 0
    for c in cuts + [total]:
        parts.append(c - prev)
        prev = c
    return parts


def _shift_oracle(kind, m, sizes, i, j):
    before = join_family_graph(m, sizes)
    after = join_family_graph(m, _shifted(sizes, i, j))
    return evaluate(kind, before) - evaluate(kind, after)


def _unbalanced_specs(min_part, n_max):
    for n in range(5, n_max + 1):
        for m in range(1, n - 3):
            for k in (2, 3, 4):
                rest = n - m
                for sizes in itertools.combinations_with_replacement(
                        range(min_part, rest + 1), k):
                    if sum(sizes) != rest:
                        continue
                    sizes = sorted(sizes, reverse=True)
                    if sizes[0] - sizes[-1] >= 2:
                        yield n, m, sizes


def _improves(kind, got) -> bool:
    """A shift toward balance moves the value toward the class optimum: down
    for a decreasing kind's minimum, up for an increasing kind's maximum."""
    return got != 0 and (got > 0) == (direction(kind) is Direction.DECREASING)


def test_exact_predictions_in_regime():
    checked = 0
    for n, m, sizes in _unbalanced_specs(min_part=2, n_max=12):
        i, j = 0, len(sizes) - 1
        for kind, printed in SHIFT_DIFFERENCE.items():
            assert printed(n, sizes[i], sizes[j]) == _shift_oracle(kind, m, sizes, i, j), \
                (kind, n, m, sizes)
        checked += 1
    assert checked > 50


def test_sign_predictions_all_kinds_in_regime():
    for n, m, sizes in _unbalanced_specs(min_part=2, n_max=11):
        for kind in ALL_KINDS:
            got = _shift_oracle(kind, m, sizes, 0, len(sizes) - 1)
            assert _improves(kind, got), (kind, n, m, sizes)


def test_distance_and_degree_predictions_allow_singleton_parts():
    """The W/H/M1 exact differences and degree-kind signs need no regime."""
    for n, m, sizes in _unbalanced_specs(min_part=1, n_max=10):
        i, j = 0, len(sizes) - 1
        for kind in (IndexKind.WIENER, IndexKind.HARARY, IndexKind.ZAGREB_M1):
            printed = SHIFT_DIFFERENCE[kind](n, sizes[i], sizes[j])
            assert printed == _shift_oracle(kind, m, sizes, i, j)
        for kind in (IndexKind.RDD, IndexKind.ZAGREB_M2,
                     IndexKind.MULT_ZAGREB_PI1, IndexKind.MULT_ZAGREB_PI2):
            assert _improves(kind, _shift_oracle(kind, m, sizes, i, j))


def test_rdd_difference_refutation_case():
    """Direct computation gives -8 where the printed expression gives -16,
    so only the sign of the rdd difference is asserted elsewhere."""
    got = _shift_oracle(IndexKind.RDD, 1, [3, 1], 0, 1)
    assert got == -8
    printed = -(6 * 5 - 2 - 3 * 3 - 3 * 1) * (3 - 1 - 1)
    assert printed == -16 and got != printed
    assert IndexKind.RDD not in SHIFT_DIFFERENCE and _improves(IndexKind.RDD, got)


def test_eccentricity_predictions_flagged_out_of_regime():
    """With a singleton part the published eccentricity differences are wrong
    (the shifted pair at n=5, m=1, sizes (3,1) has difference 0 for the
    eccentricity distance sum and +1 for the connective eccentricity), so
    they are asserted only with every part of size >= 2."""
    for kind, got in ((IndexKind.ECC_DIST_SUM, 0), (IndexKind.CONN_ECC, 1)):
        assert _shift_oracle(kind, 1, [3, 1], 0, 1) == got
        assert SHIFT_DIFFERENCE[kind](5, 3, 1) != got


def test_predicted_difference_sign_convention():
    for kind in ALL_KINDS:
        assert _improves(kind, _shift_oracle(kind, 1, [4, 2, 2], 0, 1)), kind


def test_construction_partiteness_equals_m():
    for n in range(5, 11):
        for k in (2, 3):
            for m in range(1, n - k + 1):
                p = ClassParams(n, m, k)
                assert vertex_k_partiteness(extremal_graph(p), k) == m


def test_integer_kinds_reduce_to_integers():
    integer_kinds = (IndexKind.WIENER, IndexKind.ECC_DIST_SUM, IndexKind.ZAGREB_M1,
                     IndexKind.ZAGREB_M2, IndexKind.MULT_ZAGREB_PI1,
                     IndexKind.MULT_ZAGREB_PI2)
    for n in range(4, 12):
        for k in (2, 3):
            for m in range(1, n - k + 1):
                p = ClassParams(n, m, k)
                for kind in integer_kinds:
                    assert isinstance(closed_form(kind, p).value, int)
                rational = closed_form(IndexKind.ADJ_ECC_DIST_SUM, p).value
                assert isinstance(rational, Fraction)
