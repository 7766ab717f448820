"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value below is frozen from an independent derivation (the
brute-force oracles in this repo); nothing is tuned at run time. Runtime
budgets are asserted with fresh caches so the timings are honest.

The three scan rows where the published balanced construction is NOT the
class optimizer -- connective eccentricity at (6,1,2) and (6,2,2), and the
eccentricity distance sum at (6,2,2) -- are regime findings, not test
failures: a singleton-part family member (whose lone part vertex is
universal, eccentricity 1) beats the balanced graph, exactly the
universal-vertex regime the closed-form flags predict. Those rows are
asserted in full (unique competitor optimizer, its exact value, and the
construction's published value) so any drift still fails loudly.
"""

import random
import sys
import time
from fractions import Fraction

import networkx as nx

from vklab import (ALL_KINDS, ClassParams, Direction, IndexKind, canonical_form,
                   closed_form, direction, evaluate, extremal_graph, join_family_graph,
                   monotonicity_fuzz, parse_graph6, part_sizes, to_graph6)
from vklab.indices import ECCENTRICITY_KINDS
from vklab.search import clear_sweep_cache
from vklab.verify import CONFIRMED, REFUTED, REGIME_FLAGGED, verify_claims

from conftest import (SHIFT_DIFFERENCE, graph_of_nx, nx_of, random_graph, scan_by_m,
                      zagreb_m2_corrected)

K = IndexKind


def _criterion(number: int, label: str, budget: float | None = None):
    """Context manager printing the per-criterion PASS/FAIL line.

    Writes through the unbuffered real stdout so the line shows up even under
    pytest's default capture."""
    class _Ctx:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            dt = time.monotonic() - self.t0
            status = "PASS" if exc_type is None else "FAIL"
            budget_note = f" (budget {budget:.0f}s)" if budget else ""
            print(f"\nACCEPTANCE {number} {label}: {status} in {dt:.1f}s{budget_note}",
                  file=sys.__stdout__, flush=True)
            if exc_type is None and budget is not None:
                assert dt < budget, f"criterion {number} exceeded {budget}s: {dt:.1f}s"
            return False

    return _Ctx()


# ---------------------------------------------------------------------------
# 1. formula-vs-oracle grid
# ---------------------------------------------------------------------------

def test_criterion_1_formula_vs_oracle_grid():
    with _criterion(1, "formula-vs-oracle grid (4<=n<=12, 2<=k<=4, parts>=2)", 10.0):
        checked = 0
        for n in range(4, 13):
            for k in (2, 3, 4):
                for m in range(1, n - k + 1):
                    params = ClassParams(n, m, k)
                    if part_sizes(params).s < 2:
                        continue
                    g = extremal_graph(params)
                    for kind in ALL_KINDS:
                        oracle = evaluate(kind, g)
                        if kind is K.ZAGREB_M2:
                            assert zagreb_m2_corrected(m, part_sizes(params).sizes) == oracle
                        else:
                            assert closed_form(kind, params).value == oracle, \
                                (kind, n, m, k)
                    checked += 1
        assert checked >= 50
        # the printed second-Zagreb line specifically mismatches at (6,2,2)
        p622 = ClassParams(6, 2, 2)
        assert closed_form(K.ZAGREB_M2, p622).value == 185
        assert evaluate(K.ZAGREB_M2, extremal_graph(p622)) == 249
        assert zagreb_m2_corrected(2, part_sizes(p622).sizes) == 249


# ---------------------------------------------------------------------------
# 2. exhaustive extremality at n = 6, k = 2
# ---------------------------------------------------------------------------

# frozen scan optima (in-repo brute-force oracle); rows marked with a sizes
# tuple are the regime exceptions whose unique optimizer is that singleton-
# part family member instead of the balanced construction
_N6_EXPECTED = {
    (1, K.WIENER): (19, None),
    (1, K.HARARY): (13, None),
    (1, K.RDD): (97, None),
    (1, K.ECC_DIST_SUM): (71, None),
    (1, K.CONN_ECC): (14, (4, 1)),
    (1, K.ADJ_ECC_DIST_SUM): (21, None),
    (1, K.ZAGREB_M1): (84, None),
    (1, K.ZAGREB_M2): (157, None),
    (1, K.MULT_ZAGREB_PI1): (4_665_600, None),
    (1, K.MULT_ZAGREB_PI2): (4_031_078_400_000, None),
    (2, K.WIENER): (17, None),
    (2, K.HARARY): (14, None),
    (2, K.RDD): (122, None),
    (2, K.ECC_DIST_SUM): (57, (3, 1)),
    (2, K.CONN_ECC): (Fraction(39, 2), (3, 1)),
    (2, K.ADJ_ECC_DIST_SUM): (14, None),
    (2, K.ZAGREB_M1): (114, None),
    (2, K.ZAGREB_M2): (249, None),
    (2, K.MULT_ZAGREB_PI1): (40_960_000, None),
    (2, K.MULT_ZAGREB_PI2): (5 ** 10 * 2 ** 32, None),
    (3, K.WIENER): (16, None),
    (3, K.HARARY): (Fraction(29, 2), None),
    (3, K.RDD): (136, None),
    (3, K.ECC_DIST_SUM): (44, None),
    (3, K.CONN_ECC): (24, None),
    (3, K.ADJ_ECC_DIST_SUM): (10, None),
    (3, K.ZAGREB_M1): (132, None),
    (3, K.ZAGREB_M2): (310, None),
    (3, K.MULT_ZAGREB_PI1): (100_000_000, None),
    (3, K.MULT_ZAGREB_PI2): (5 ** 20 * 4 ** 8, None),
    (4, K.WIENER): (15, None),
    (4, K.HARARY): (15, None),
    (4, K.RDD): (150, None),
    (4, K.ECC_DIST_SUM): (30, None),
    (4, K.CONN_ECC): (30, None),
    (4, K.ADJ_ECC_DIST_SUM): (6, None),
    (4, K.ZAGREB_M1): (150, None),
    (4, K.ZAGREB_M2): (375, None),
    (4, K.MULT_ZAGREB_PI1): (5 ** 12, None),
    (4, K.MULT_ZAGREB_PI2): (5 ** 30, None),
}

# published per-construction values the regime exceptions displace
_N6_PUBLISHED_AT_EXCEPTIONS = {
    (1, K.CONN_ECC): Fraction(27, 2),
    (2, K.ECC_DIST_SUM): 58,
    (2, K.CONN_ECC): 18,
}


def test_criterion_2_exhaustive_extremality_k2():
    with _criterion(2, "exhaustive extremality n=6, k=2, all ten kinds", 60.0):
        clear_sweep_cache()
        reports = scan_by_m(6, 2, (1, 2, 3, 4), ALL_KINDS, workers=1)
        for (m, kind), (optimum, exception_sizes) in _N6_EXPECTED.items():
            report = reports[(m, kind)]
            params = ClassParams(6, m, 2)
            ghat_value = evaluate(kind, extremal_graph(params))
            assert report.optimum == optimum, (m, kind, report.optimum)
            assert len(report.optimizer_codes) == 1, (m, kind)
            if exception_sizes is None:
                assert report.matches_construction, (m, kind)
                assert report.optimum == ghat_value
            else:
                # regime exception: the singleton-part member wins and the
                # report must say so -- never a silent pass
                competitor = join_family_graph(m, list(exception_sizes))
                assert min(exception_sizes) == 1  # universal-vertex regime
                assert not report.matches_construction
                assert not report.matches_closed_form
                assert report.optimizer_codes == \
                    frozenset({canonical_form(competitor)})
                published = _N6_PUBLISHED_AT_EXCEPTIONS[(m, kind)]
                assert ghat_value == published
                better = (report.optimum < published
                          if kind in (K.WIENER, K.ECC_DIST_SUM, K.ADJ_ECC_DIST_SUM)
                          else report.optimum > published)
                assert better
            # closed-form agreement bookkeeping: the only permitted
            # mismatches are the M2 erratum, the s=1 regime rows, and the
            # displaced exceptions above
            s = part_sizes(params).s
            closed_ok = report.optimum == closed_form(kind, params).value
            if kind is K.ZAGREB_M2:
                assert not closed_ok
                assert report.optimum == zagreb_m2_corrected(m, part_sizes(params).sizes)
            elif kind in ECCENTRICITY_KINDS and (s < 2 or exception_sizes):
                assert not closed_ok
            else:
                assert closed_ok, (m, kind)
            assert report.matches_closed_form == closed_ok
        assert reports[(4, K.WIENER)].class_size == 26704


# ---------------------------------------------------------------------------
# 3. exhaustive extremality at n = 7, k = 3
# ---------------------------------------------------------------------------

_N7_EXPECTED = {
    (1, K.WIENER): 24,
    (1, K.HARARY): Fraction(39, 2),
    (1, K.ZAGREB_M1): 186,
    (2, K.WIENER): 23,
    (2, K.HARARY): 20,
    (2, K.ZAGREB_M1): 208,
}


def test_criterion_3_exhaustive_extremality_k3():
    with _criterion(3, "exhaustive extremality n=7, k=3 (W, H, M1), 8 workers",
                    600.0):
        clear_sweep_cache()
        kinds = (K.WIENER, K.HARARY, K.ZAGREB_M1)
        reports = scan_by_m(7, 3, (1, 2), kinds, workers=8)
        for (m, kind), optimum in _N7_EXPECTED.items():
            report = reports[(m, kind)]
            assert report.optimum == optimum, (m, kind, report.optimum)
            assert report.matches_construction, (m, kind)
            assert report.matches_closed_form, (m, kind)
            assert len(report.optimizer_codes) == 1


# ---------------------------------------------------------------------------
# 4. monotonicity suite
# ---------------------------------------------------------------------------

def test_criterion_4_monotonicity_fuzz():
    with _criterion(4, "monotonicity fuzz, 1000 trials per kind, n in [4,8]",
                    30.0):
        for kind in ALL_KINDS:
            report = monotonicity_fuzz(kind, 1000, (4, 8), seed=1)
            assert report.violations == 0, (kind, report.counterexamples)
            assert report.trials == 1000


# ---------------------------------------------------------------------------
# 5. shift-difference suite
# ---------------------------------------------------------------------------

def _random_unbalanced_spec(rng):
    while True:
        k = rng.randint(2, 4)
        sizes = [rng.randint(2, 5) for _ in range(k)]
        if max(sizes) - min(sizes) < 2:
            continue
        m = rng.randint(1, 3)
        n = m + sum(sizes)
        if n <= 14:
            return n, m, sizes


def test_criterion_5_shift_differences():
    with _criterion(5, "shift differences: 200 specs exact+sign, RDD refutation",
                    10.0):
        rng = random.Random(42)
        for _ in range(200):
            n, m, sizes = _random_unbalanced_spec(rng)
            i = sizes.index(max(sizes))
            j = sizes.index(min(sizes))
            before = evaluate_all(join_family_graph(m, sizes))
            shifted = list(sizes)
            shifted[i] -= 1
            shifted[j] += 1
            after = evaluate_all(join_family_graph(m, shifted))
            for kind in ALL_KINDS:
                got = before[kind] - after[kind]
                # toward balance improves: a minimum falls, a maximum rises
                assert got != 0 and (got > 0) == (direction(kind) is Direction.DECREASING), \
                    (kind, n, m, sizes)
                if kind in SHIFT_DIFFERENCE:
                    assert SHIFT_DIFFERENCE[kind](n, sizes[i], sizes[j]) == got, \
                        (kind, n, m, sizes)
        # the specific published-difference refutation: -8, not -16
        g_before = join_family_graph(1, [3, 1])
        g_after = join_family_graph(1, [2, 2])
        rdd_diff = evaluate(K.RDD, g_before) - evaluate(K.RDD, g_after)
        assert rdd_diff == -8
        printed = -(6 * 5 - 2 - 3 * 3 - 3 * 1) * (3 - 1 - 1)
        assert printed == -16 and rdd_diff != printed


def evaluate_all(g):
    from vklab import compute_metrics
    metrics = compute_metrics(g)
    return {kind: evaluate(kind, g, metrics) for kind in ALL_KINDS}


# ---------------------------------------------------------------------------
# 6. errata ledger reproduction
# ---------------------------------------------------------------------------

def _k2_grid(n_lo, n_hi):
    return [ClassParams(n, m, 2)
            for n in range(n_lo, n_hi + 1) for m in range(1, n - 1)]


def test_criterion_6_errata_ledger():
    with _criterion(6, "errata ledger: documented suspects flagged, rest confirmed",
                    120.0):
        grid = _k2_grid(4, 10)

        # suspect 1: the second-Zagreb theorem line, refuted everywhere with
        # both values; the worked pair 185 vs 249 at (6,2,2)
        report = verify_claims({"thm4.7-m2": grid})[0]
        assert all(v.verdict == REFUTED for v in report.verdicts)
        worked = next(v for v in report.verdicts
                      if (v.params.n, v.params.m) == (6, 2))
        assert (worked.expected, worked.actual) == (185, 249)

        # suspect 2: the odd-case adjacent-eccentric corollary ("(n-m-11)")
        # suspect 3 (additional finding): the odd-case ecc-distance-sum
        # corollary's trailing constant; both values printed in each verdict
        for claim, worked_case in (("cor4.5", None), ("cor4.4", (6, 1, 69, 71))):
            report = verify_claims({claim: grid})[0]
            for v in report.verdicts:
                odd = (v.params.n - v.params.m) % 2 == 1
                s = (v.params.n - v.params.m) // 2
                if odd and s >= 2:
                    assert v.verdict == REFUTED, (claim, v)
                    assert v.expected != v.actual
                elif s >= 2:
                    assert v.verdict == CONFIRMED, (claim, v)
                else:
                    assert v.verdict == REGIME_FLAGGED, (claim, v)
            if worked_case:
                n, m, exp, act = worked_case
                v = next(v for v in report.verdicts
                         if (v.params.n, v.params.m) == (n, m))
                assert (v.expected, v.actual) == (exp, act)

        # suspect 4: the inequality direction of the connective-eccentricity
        # statement; empirically the construction sits at the maximum
        report = verify_claims({"thm4.6-direction": _k2_grid(4, 5)})[0]
        assert report.verdicts and all(v.verdict == REFUTED for v in report.verdicts)
        assert all("direction" in v.note for v in report.verdicts)

        # everything else at k = 2 confirms outside the singleton regime
        clean = ("cor4.1", "cor4.2", "cor4.3", "cor4.6",
                 "cor4.7-m1", "cor4.7-m2", "cor4.7-pi1", "cor4.7-pi2",
                 "thm4.1", "thm4.2", "thm4.3", "thm4.7-m1",
                 "thm4.7-pi1", "thm4.7-pi2")
        for claim in clean:
            report = verify_claims({claim: grid})[0]
            for v in report.verdicts:
                s = (v.params.n - v.params.m) // 2
                if s >= 2:
                    assert v.verdict == CONFIRMED, (claim, v)
                else:
                    assert v.verdict in (CONFIRMED, REGIME_FLAGGED)
            assert len(report.verdicts) == len(grid)

        # eccentricity theorem forms: confirmed in regime, flagged outside,
        # with both values carried -- never silently passed
        for claim in ("thm4.4", "thm4.5", "thm4.6"):
            report = verify_claims({claim: grid})[0]
            for v in report.verdicts:
                s = (v.params.n - v.params.m) // 2
                if s >= 2:
                    assert v.verdict == CONFIRMED, (claim, v)
                else:
                    assert v.verdict == REGIME_FLAGGED
                    assert v.expected is not None and v.actual is not None


# ---------------------------------------------------------------------------
# 7. infrastructure properties
# ---------------------------------------------------------------------------

def test_criterion_7_infrastructure():
    with _criterion(7, "graph6 round-trip, canonical invariance, scan determinism",
                    300.0):
        rng = random.Random(7)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(2, 20))
            assert parse_graph6(to_graph6(g)) == g

        for _ in range(50):
            n = rng.randint(2, 8)
            g = random_graph(rng, n)
            base = canonical_form(g)
            for _ in range(100):
                perm = list(range(n))
                rng.shuffle(perm)
                relabelled = nx.relabel_nodes(nx_of(g), dict(enumerate(perm)))
                assert canonical_form(graph_of_nx(relabelled)) == base

        clear_sweep_cache()
        runs = {w: scan_by_m(6, 2, (1, 2, 3, 4), ALL_KINDS, workers=w)
                for w in (1, 4, 8)}
        for key in runs[1]:
            assert runs[1][key] == runs[4][key] == runs[8][key], key
