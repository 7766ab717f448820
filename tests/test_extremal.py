"""Construction, closed forms (printed warts included), and shift predictions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vklab import (ALL_KINDS, ClassParams, Direction, IndexKind, InvalidParamsError,
                   closed_form, closed_form_bipartite, closed_form_corrected,
                   complete_graph, complete_multipartite, compute_metrics, direction,
                   evaluate, extremal_graph, is_isomorphic, join, join_family_graph,
                   part_sizes, predicted_difference, shift_vertex,
                   vertex_k_partiteness)
from vklab.extremal import EVEN, ODD
from vklab.indices import ECCENTRICITY_KINDS


def test_part_sizes_examples():
    spec = part_sizes(ClassParams(6, 2, 2))
    assert (spec.s, spec.t, spec.sizes) == (2, 0, (2, 2))
    spec = part_sizes(ClassParams(6, 1, 2))
    assert (spec.s, spec.t, spec.sizes) == (2, 1, (2, 3))
    spec = part_sizes(ClassParams(10, 1, 4))
    assert (spec.s, spec.t, spec.sizes) == (2, 1, (2, 2, 2, 3))
    assert spec.balanced


def test_join_family_graph():
    g = join_family_graph(2, [2, 2])
    assert g.n == 6 and g.edge_count() == 13
    assert is_isomorphic(join_family_graph(1, [1, 1, 1]), complete_graph(4))
    assert is_isomorphic(join_family_graph(4, [1, 1]), complete_graph(6))
    with pytest.raises(InvalidParamsError):
        join_family_graph(0, [2, 2])
    with pytest.raises(InvalidParamsError):
        join_family_graph(2, [])


def test_extremal_graph_isomorphism_examples():
    assert is_isomorphic(extremal_graph(ClassParams(6, 2, 2)),
                         join(complete_graph(2), complete_multipartite([2, 2])))
    assert is_isomorphic(extremal_graph(ClassParams(6, 1, 2)),
                         complete_multipartite([1, 2, 3]))
    assert is_isomorphic(extremal_graph(ClassParams(6, 4, 2)), complete_graph(6))


def test_vertex_order_clique_first():
    g = extremal_graph(ClassParams(6, 2, 2))
    assert g.degrees() == [5, 5, 4, 4, 4, 4]


def test_closed_form_worked_values():
    p = ClassParams(6, 2, 2)
    assert closed_form(IndexKind.WIENER, p).value == 17
    assert closed_form(IndexKind.CONN_ECC, p).value == 18
    m2 = closed_form(IndexKind.ZAGREB_M2, p)
    assert m2.value == 185 and m2.erratum_suspect
    assert evaluate(IndexKind.ZAGREB_M2, extremal_graph(p)) == 249
    assert closed_form_corrected(IndexKind.ZAGREB_M2, p).value == 249


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
                        assert closed_form_corrected(kind, p).value == oracle
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
            assert closed_form_corrected(kind, p).value == oracle
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


def test_closed_form_corrected_equals_printed_for_other_kinds():
    p = ClassParams(7, 2, 2)
    for kind in ALL_KINDS:
        if kind is IndexKind.ZAGREB_M2:
            continue
        assert closed_form_corrected(kind, p).value == closed_form(kind, p).value


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
                cor = closed_form_bipartite(kind, n, m)
                thm = (closed_form_corrected(kind, p)
                       if kind is IndexKind.ZAGREB_M2 else closed_form(kind, p))
                if cor.value != thm.value:
                    suspects.add((kind, parity))
                    assert cor.erratum_suspect, (kind, n, m)
    assert suspects == {(IndexKind.ECC_DIST_SUM, ODD),
                        (IndexKind.ADJ_ECC_DIST_SUM, ODD)}


def test_bipartite_m2_matches_corrected_not_printed_theorem():
    # the corollary's second-Zagreb line is right; the theorem's line is not
    cor = closed_form_bipartite(IndexKind.ZAGREB_M2, 6, 2)
    assert cor.value == 249 and not cor.erratum_suspect


def test_bipartite_ecc_dist_sum_odd_constant_erratum():
    # printed odd case is short by 2: the trailing constant should be +1
    cor = closed_form_bipartite(IndexKind.ECC_DIST_SUM, 6, 1)
    thm = closed_form(IndexKind.ECC_DIST_SUM, ClassParams(6, 1, 2))
    oracle = evaluate(IndexKind.ECC_DIST_SUM, extremal_graph(ClassParams(6, 1, 2)))
    assert cor.value == 69 and cor.erratum_suspect
    assert thm.value == oracle == 71


# ---------------------------------------------------------------------------
# shifts and difference predictions
# ---------------------------------------------------------------------------

def test_shift_vertex():
    assert shift_vertex([3, 1], 0, 1) == [2, 2]
    assert shift_vertex([4, 2, 2], 0, 1) == [3, 3, 2]
    with pytest.raises(InvalidParamsError):
        shift_vertex([2, 2], 0, 1)


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
            sizes = shift_vertex(sizes, i, j)
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
    after = join_family_graph(m, shift_vertex(sizes, i, j))
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


def test_exact_predictions_in_regime():
    exact_kinds = (IndexKind.WIENER, IndexKind.HARARY, IndexKind.ECC_DIST_SUM,
                   IndexKind.CONN_ECC, IndexKind.ZAGREB_M1)
    checked = 0
    for n, m, sizes in _unbalanced_specs(min_part=2, n_max=12):
        i, j = 0, len(sizes) - 1
        for kind in exact_kinds:
            pred = predicted_difference(kind, m, sizes, i, j)
            assert pred.exact == _shift_oracle(kind, m, sizes, i, j), (kind, n, m, sizes)
        checked += 1
    assert checked > 50


def test_sign_predictions_all_kinds_in_regime():
    for n, m, sizes in _unbalanced_specs(min_part=2, n_max=11):
        i, j = 0, len(sizes) - 1
        for kind in ALL_KINDS:
            pred = predicted_difference(kind, m, sizes, i, j)
            got = _shift_oracle(kind, m, sizes, i, j)
            assert pred.sign in (1, -1)
            assert (got > 0) == (pred.sign == 1) and got != 0, (kind, n, m, sizes)


def test_distance_and_degree_predictions_allow_singleton_parts():
    """The W/H/M1 exact differences and degree-kind signs need no regime."""
    for n, m, sizes in _unbalanced_specs(min_part=1, n_max=10):
        i, j = 0, len(sizes) - 1
        for kind in (IndexKind.WIENER, IndexKind.HARARY, IndexKind.ZAGREB_M1):
            pred = predicted_difference(kind, m, sizes, i, j)
            assert pred.exact == _shift_oracle(kind, m, sizes, i, j)
        for kind in (IndexKind.RDD, IndexKind.ZAGREB_M2,
                     IndexKind.MULT_ZAGREB_PI1, IndexKind.MULT_ZAGREB_PI2):
            pred = predicted_difference(kind, m, sizes, i, j)
            got = _shift_oracle(kind, m, sizes, i, j)
            assert (got > 0) == (pred.sign == 1) and got != 0


def test_rdd_difference_refutation_case():
    """Direct computation gives -8 where the printed expression gives -16."""
    got = _shift_oracle(IndexKind.RDD, 1, [3, 1], 0, 1)
    assert got == -8
    printed = -(6 * 5 - 2 - 3 * 3 - 3 * 1) * (3 - 1 - 1)
    assert printed == -16 and got != printed
    pred = predicted_difference(IndexKind.RDD, 1, [3, 1], 0, 1)
    assert pred.exact is None and pred.sign == -1
    assert (got > 0) == (pred.sign == 1)


def test_eccentricity_predictions_flagged_out_of_regime():
    """With a singleton part the published eccentricity differences are wrong
    (the shifted pair at n=5, m=1, sizes (3,1) has difference 0 for the
    eccentricity distance sum and +1 for the connective eccentricity), so the
    prediction declines to predict."""
    assert _shift_oracle(IndexKind.ECC_DIST_SUM, 1, [3, 1], 0, 1) == 0
    assert _shift_oracle(IndexKind.CONN_ECC, 1, [3, 1], 0, 1) == 1
    for kind in ECCENTRICITY_KINDS:
        pred = predicted_difference(kind, 1, [3, 1], 0, 1)
        assert pred.regime_restricted
        assert pred.exact is None and pred.sign is None


def test_predicted_difference_sign_convention():
    for kind in ALL_KINDS:
        pred = predicted_difference(kind, 1, [4, 2, 2], 0, 1)
        want = 1 if direction(kind) is Direction.DECREASING else -1
        assert pred.sign == want


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
