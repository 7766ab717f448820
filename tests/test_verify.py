"""Claim certification: confirmations where the statements hold, flagged
refutations where they do not, and never a silent pass."""

from collections import Counter

import pytest

from vklab import (ALL_KINDS, ClassParams, IndexKind, InvalidParamsError, SizeCapError,
                   indices, search, verify, verify_claims)
from vklab.graphs import code_to_graph
from vklab.partiteness import vertex_k_partiteness
from vklab.search import _partitions_at_most, catalogue, clear_sweep_cache
from vklab.verify import CONFIRMED, REFUTED, REGIME_FLAGGED, claim_grid, known_claims


def _grid(n_lo, n_hi, k_values=(2,)):
    out = []
    for n in range(n_lo, n_hi + 1):
        for k in k_values:
            for m in range(1, n - k + 1):
                out.append(ClassParams(n, m, k))
    return out


def test_known_claims_inventory():
    claims = known_claims()
    assert "thm4.7-m2" in claims and "cor4.5" in claims and "thm3.1" in claims
    with pytest.raises(ValueError):
        verify_claims({"thm9.9": None})


STATEMENTS = ["4.1", "4.2", "4.3", "4.4", "4.5", "4.6", "4.7-m1", "4.7-m2", "4.7-pi1",
              "4.7-pi2"]


def test_claim_inventory_and_ledger_order_are_frozen():
    """The 23 claim ids in ledger order; each kind has exactly one closed-form
    statement and one corollary line."""
    assert known_claims() == ([f"thm{no}" for no in STATEMENTS]
                              + [f"cor{no}" for no in STATEMENTS]
                              + ["thm3.1", "thm3.2", "thm4.6-direction"])
    for prefix in ("thm", "cor"):
        reports = verify_claims({f"{prefix}{no}": _grid(6, 6) for no in STATEMENTS})
        kinds = Counter(kind for report in reports for kind in {v.kind for v in report.verdicts})
        assert kinds == Counter(ALL_KINDS), prefix


def test_claim_grid_refuses_an_unknown_claim():
    """The same error, word for word, as `verify_claims` gives."""
    with pytest.raises(InvalidParamsError) as from_verify:
        verify_claims({"THM9.9": None})
    with pytest.raises(InvalidParamsError) as from_grid:
        claim_grid("THM9.9")
    assert str(from_grid.value) == str(from_verify.value)
    assert str(from_grid.value).startswith("unknown claim 'thm9.9'; known: thm4.1, ")


def test_nonpositive_workers_rejected():
    for claim in ("thm4.1", "thm3.1", "thm4.6-direction"):
        for workers in (0, -1):
            with pytest.raises(InvalidParamsError):
                verify_claims({claim: _grid(4, 4)}, workers)


def test_m2_theorem_line_refuted_with_both_values():
    report = verify_claims({"thm4.7-m2": _grid(4, 12, (2, 3, 4))})[0]
    assert any(v.verdict != CONFIRMED for v in report.verdicts)
    hit = [v for v in report.verdicts if v.verdict == REFUTED
           and (v.params.n, v.params.m, v.params.k) == (6, 2, 2)]
    assert len(hit) == 1
    assert hit[0].expected == 185 and hit[0].actual == 249
    # the omission hits every tuple: the cross term is positive whenever k >= 2
    assert all(v.verdict == REFUTED for v in report.verdicts)


def test_m1_and_pi_theorem_lines_confirm():
    for claim in ("thm4.7-m1", "thm4.7-pi1", "thm4.7-pi2"):
        report = verify_claims({claim: _grid(4, 11, (2, 3))})[0]
        assert all(v.verdict == CONFIRMED for v in report.verdicts), claim


def test_distance_formula_claims_confirm_in_regime():
    for claim in ("thm4.1", "thm4.2", "thm4.3"):
        report = verify_claims({claim: _grid(4, 11, (2, 3))})[0]
        assert all(v.verdict == CONFIRMED for v in report.verdicts), claim


def test_eccentricity_formula_claims_flag_singleton_regime():
    report = verify_claims({"thm4.4": _grid(4, 10, (2, 3))})[0]
    for v in report.verdicts:
        s = (v.params.n - v.params.m) // v.params.k
        if s >= 2:
            assert v.verdict == CONFIRMED
        else:
            assert v.verdict == REGIME_FLAGGED
            assert v.expected != v.actual  # both values carried, visibly apart


def test_corollary_claims_confirm_except_documented():
    expected_bad = {"cor4.4": ("odd",), "cor4.5": ("odd",)}
    for claim in ("cor4.1", "cor4.2", "cor4.3", "cor4.4", "cor4.5", "cor4.6",
                  "cor4.7-m1", "cor4.7-m2", "cor4.7-pi1", "cor4.7-pi2"):
        report = verify_claims({claim: _grid(4, 11)})[0]
        for v in report.verdicts:
            parity = "even" if (v.params.n - v.params.m) % 2 == 0 else "odd"
            s = (v.params.n - v.params.m) // 2
            if claim in expected_bad and parity in expected_bad[claim] and s >= 2:
                assert v.verdict == REFUTED, (claim, v)
                assert v.expected != v.actual
            elif s < 2 and claim in ("cor4.4", "cor4.5", "cor4.6"):
                assert v.verdict in (REGIME_FLAGGED, REFUTED)
            else:
                assert v.verdict == CONFIRMED, (claim, v)


def test_cor44_odd_refutation_values():
    report = verify_claims({"cor4.4": _grid(6, 6)})[0]
    odd = {(v.params.n, v.params.m): v for v in report.verdicts
           if (v.params.n - v.params.m) % 2 == 1}
    v = odd[(6, 1)]
    assert v.verdict == REFUTED
    assert v.expected == 69 and v.actual == 71


def test_direction_claim_refuted():
    report = verify_claims({"thm4.6-direction": _grid(5, 5)})[0]
    assert all(v.verdict == REFUTED for v in report.verdicts)
    assert all("direction" in v.note for v in report.verdicts)


def test_structure_claims_small_grid():
    """Extremality-and-uniqueness of the join family on the n <= 5 grid.

    The single known exception at this size: the eccentricity distance sum
    ties between two family members at (5, 1, 2), so uniqueness fails there;
    everything else confirms.
    """
    grid = _grid(4, 5, (2, 3))
    for claim in ("thm3.1", "thm3.2"):
        report = verify_claims({claim: grid})[0]
        for v in report.verdicts:
            expected_tie = (claim == "thm3.1"
                            and v.kind is IndexKind.ECC_DIST_SUM
                            and (v.params.n, v.params.m, v.params.k) == (5, 1, 2))
            if expected_tie:
                assert v.verdict == REFUTED and "uniqueness" in v.note
            else:
                assert v.verdict == CONFIRMED, (claim, v)


def test_scan_claims_make_one_pass_per_n_and_k(monkeypatch):
    """Every m, k and kind of one n comes from a single scan, whatever
    the grid order, so each (n, k) lies in exactly one pass."""
    grid = _grid(4, 6, (2, 3))[::-1]
    scan_catalogue = verify.scan_catalogue
    classes_by_n: dict = {}
    for p in grid:
        classes_by_n.setdefault(p.n, set()).add(p)
    for claim in ("thm3.1", "thm3.2", "thm4.6-direction"):
        passes = Counter()

        def counted(params, *args):
            params = frozenset(params)
            passes[params] += 1
            return scan_catalogue(params, *args)

        monkeypatch.setattr(verify, "scan_catalogue", counted)
        report = verify_claims({claim: grid})[0]
        assert passes == Counter(map(frozenset, classes_by_n.values())), claim
        # verdicts still follow the grid order
        per_tuple = len(report.verdicts) // len(grid)
        assert [v.params for v in report.verdicts] == [p for p in grid
                                                       for _ in range(per_tuple)]


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_claims_equals_one_claim_at_a_time(workers):
    """Sharing the graph work changes no report: default grids, and the
    `--scan-nmax 5` grids of `verify --claim all`, on a cold catalogue."""
    claims = known_claims()
    clear_sweep_cache()
    shared = verify_claims({c: claim_grid(c, 10, (2, 3, 4), 5) for c in claims}, workers)
    assert [r.claim for r in shared] == claims
    assert verify_claims(dict.fromkeys(claims), workers) == shared
    assert [verify_claims({c: None}, workers)[0] for c in claims] == shared


def test_verify_claims_evaluates_each_graph_once(monkeypatch):
    """One BFS per scanned catalogue member per n, per distinct construction
    and per join-family member, one build per construction, one printed
    closed form per (class, kind) of the formula and corollary claims, and
    none for the scan reports, whose closed-form match verify never reads;
    a cold second run repeats exactly the same counts."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # `indices.kernel` is the one caller of compute_metrics
    monkeypatch.setattr(indices, "compute_metrics",
                        counting("compute_metrics", indices.compute_metrics))
    monkeypatch.setattr(verify, "extremal_graph",
                        counting("extremal_graph", verify.extremal_graph))
    monkeypatch.setattr(verify, "closed_form", counting("closed_form", verify.closed_form))
    monkeypatch.setattr(search, "closed_form",
                        counting("scan_closed_form", search.closed_form))
    grids = {"thm4.1": _grid(4, 6, (2, 3)), "cor4.2": _grid(4, 6),
             "thm4.2": _grid(4, 5, (2, 3)),
             "thm4.6-direction": _grid(4, 5, (2, 3)), "thm3.1": _grid(4, 5, (2, 3)),
             "thm3.2": _grid(5, 5, (2,))}
    constructions = {p for claim in ("thm4.1", "cor4.2", "thm4.2", "thm4.6-direction")
                     for p in grids[claim]}
    # thm4.2 and cor4.2 print the same Harary form at their common k = 2 classes
    printed = {(p, verify._CLAIMS[claim][1]) for claim in ("thm4.1", "cor4.2", "thm4.2")
               for p in grids[claim]}
    scanned = grids["thm4.6-direction"] + grids["thm3.1"] + grids["thm3.2"]
    members = sum(1 for n in {p.n for p in scanned} for bits, _ in catalogue(n)
                  if any(vertex_k_partiteness(code_to_graph(bits, n), p.k) <= p.m
                         for p in scanned if p.n == n))
    family = sum(len(list(_partitions_at_most(p.n - p.m, p.k)))
                 for p in set(grids["thm3.1"] + grids["thm3.2"]))
    want = Counter(compute_metrics=members + len(constructions) + family,
                   extremal_graph=len(constructions), closed_form=len(printed),
                   scan_closed_form=0)
    for _ in range(2):
        clear_sweep_cache()
        calls.clear()
        verify_claims(grids)
        assert calls == want


def test_verify_claims_checks_every_claim_before_any_work(monkeypatch):
    """A bad claim, grid or worker count anywhere in the call is refused
    before any construction is built or any catalogue is scanned."""
    def no_work(*args):
        raise AssertionError("graph work before the inputs were checked")

    monkeypatch.setattr(verify, "extremal_graph", no_work)
    monkeypatch.setattr(verify, "scan_catalogue", no_work)
    grid = _grid(4, 5)
    bad = [({"thm4.1": grid, "thm9.9": grid}, 1, "unknown claim 'thm9.9'"),
           ({"thm4.1": grid, "thm3.1": []}, 1, "empty parameter grid for claim thm3.1"),
           ({"thm4.1": grid, "cor4.1": _grid(5, 5, (3,))}, 1, "need k = 2"),
           ({"thm4.1": grid, "thm3.2": grid}, 0, "workers must be >= 1")]
    for grids, workers, message in bad:
        with pytest.raises(InvalidParamsError, match=message):
            verify_claims(grids, workers)
    with pytest.raises(SizeCapError):
        verify_claims({"thm4.1": grid, "thm3.1": _grid(10, 10)})


def test_never_silently_passed():
    """Every claim's report accounts for every grid tuple exactly once."""
    grid = _grid(4, 9)
    for claim in ("thm4.1", "thm4.4", "cor4.4", "cor4.5", "cor4.7-m2"):
        report = verify_claims({claim: grid})[0]
        seen = [(v.params.n, v.params.m, v.params.k) for v in report.verdicts]
        assert seen == [(p.n, p.m, p.k) for p in grid]
        counts = report.counts
        assert sum(counts.values()) == len(grid)


def test_claim_grid_is_the_one_grid_policy():
    """Corollaries take k = 2, scan-backed claims stop at their own cap,
    and `verify_claims` defaults to the same grids, whatever the case."""
    assert verify.claim_grid("cor4.3", 7) == _grid(4, 7)
    assert verify.claim_grid("COR4.3", 7) == _grid(4, 7)
    assert verify.claim_grid("thm4.1", 7, (2, 3)) == _grid(4, 7, (2, 3))
    for claim in ("thm3.1", "THM3.2", "thm4.6-direction"):
        assert verify.claim_grid(claim, 10, (2, 3), 6) == _grid(4, 6, (2, 3))
        assert verify.claim_grid(claim, 5, (2, 3), 6) == _grid(4, 5, (2, 3))
    for claim in ("thm4.2", "cor4.2", "thm4.6-direction"):  # one kind each
        report = verify_claims({claim: None})[0]
        assert [v.params for v in report.verdicts] == verify.claim_grid(claim)
