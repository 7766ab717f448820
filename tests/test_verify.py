"""Claim certification: confirmations where the statements hold, flagged
refutations where they do not, and never a silent pass."""

from collections import Counter

import pytest

from vklab import ClassParams, IndexKind, InvalidParamsError, verify, verify_theorem
from vklab.verify import CONFIRMED, REFUTED, REGIME_FLAGGED, known_claims


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
        verify_theorem("thm9.9")


def test_nonpositive_workers_rejected():
    for claim in ("thm4.1", "thm3.1", "thm4.6-direction"):
        for workers in (0, -1):
            with pytest.raises(InvalidParamsError):
                verify_theorem(claim, _grid(4, 4), workers=workers)


def test_m2_theorem_line_refuted_with_both_values():
    report = verify_theorem("thm4.7-m2", _grid(4, 12, (2, 3, 4)))
    assert not report.all_confirmed
    hit = [v for v in report.refuted
           if (v.params.n, v.params.m, v.params.k) == (6, 2, 2)]
    assert len(hit) == 1
    assert hit[0].expected == 185 and hit[0].actual == 249
    # the omission hits every tuple: the cross term is positive whenever k >= 2
    assert all(v.verdict == REFUTED for v in report.verdicts)


def test_m1_and_pi_theorem_lines_confirm():
    for claim in ("thm4.7-m1", "thm4.7-pi1", "thm4.7-pi2"):
        report = verify_theorem(claim, _grid(4, 11, (2, 3)))
        assert report.all_confirmed, claim


def test_distance_formula_claims_confirm_in_regime():
    for claim in ("thm4.1", "thm4.2", "thm4.3"):
        report = verify_theorem(claim, _grid(4, 11, (2, 3)))
        assert report.all_confirmed, claim


def test_eccentricity_formula_claims_flag_singleton_regime():
    report = verify_theorem("thm4.4", _grid(4, 10, (2, 3)))
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
        report = verify_theorem(claim, _grid(4, 11))
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
    report = verify_theorem("cor4.4", _grid(6, 6))
    odd = {(v.params.n, v.params.m): v for v in report.verdicts
           if (v.params.n - v.params.m) % 2 == 1}
    v = odd[(6, 1)]
    assert v.verdict == REFUTED
    assert v.expected == 69 and v.actual == 71


def test_direction_claim_refuted():
    report = verify_theorem("thm4.6-direction", _grid(5, 5))
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
        report = verify_theorem(claim, grid)
        for v in report.verdicts:
            expected_tie = (claim == "thm3.1"
                            and v.kind is IndexKind.ECC_DIST_SUM
                            and (v.params.n, v.params.m, v.params.k) == (5, 1, 2))
            if expected_tie:
                assert v.verdict == REFUTED and "uniqueness" in v.note
            else:
                assert v.verdict == CONFIRMED, (claim, v)


def test_scan_claims_make_one_pass_per_n_and_k(monkeypatch):
    """Every m and kind of one (n, k) comes from a single scan, whatever
    the grid order."""
    grid = _grid(4, 6, (2, 3))[::-1]
    scan_many = verify.scan_many
    for claim in ("thm3.1", "thm3.2", "thm4.6-direction"):
        calls = Counter()

        def counted(n, k, *args):
            calls[n, k] += 1
            return scan_many(n, k, *args)

        monkeypatch.setattr(verify, "scan_many", counted)
        report = verify_theorem(claim, grid)
        assert calls == Counter({(p.n, p.k): 1 for p in grid}), claim
        # verdicts still follow the grid order
        per_tuple = len(report.verdicts) // len(grid)
        assert [v.params for v in report.verdicts] == [p for p in grid
                                                       for _ in range(per_tuple)]


def test_never_silently_passed():
    """Every claim's report accounts for every grid tuple exactly once."""
    grid = _grid(4, 9)
    for claim in ("thm4.1", "thm4.4", "cor4.4", "cor4.5", "cor4.7-m2"):
        report = verify_theorem(claim, grid)
        seen = [(v.params.n, v.params.m, v.params.k) for v in report.verdicts]
        assert seen == [(p.n, p.m, p.k) for p in grid]
        counts = report.counts
        assert sum(counts.values()) == len(grid)


def test_claim_grid_is_the_one_grid_policy():
    """Corollaries take k = 2, scan-backed claims stop at their own cap,
    and `verify_theorem` defaults to the same grids, whatever the case."""
    assert verify.claim_grid("cor4.3", 7) == _grid(4, 7)
    assert verify.claim_grid("COR4.3", 7) == _grid(4, 7)
    assert verify.claim_grid("thm4.1", 7, (2, 3)) == _grid(4, 7, (2, 3))
    for claim in ("thm3.1", "THM3.2", "thm4.6-direction"):
        assert verify.claim_grid(claim, 10, (2, 3), 6) == _grid(4, 6, (2, 3))
        assert verify.claim_grid(claim, 5, (2, 3), 6) == _grid(4, 5, (2, 3))
    for claim in ("thm4.2", "cor4.2", "thm4.6-direction"):  # one kind each
        report = verify_theorem(claim)
        assert [v.params for v in report.verdicts] == verify.claim_grid(claim)
