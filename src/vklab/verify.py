"""Claim-by-claim certification of the published statements.

Each claim id names one printed statement: the two structural extremality
theorems (scan-backed), the per-index closed-form statements on the balanced
construction, the bipartite-case corollary lines, and the inequality
direction of the connective-eccentricity statement. `verify_theorem` checks
one claim over a grid of class parameters and returns a verdict per tuple:

  confirmed       the printed statement matches the independent oracle
  refuted         it does not; both values are carried in the verdict
  regime_flagged  the statement's eccentricity assumption (every part of
                  size >= 2) fails for the tuple, so the printed value is
                  reported side by side with the oracle value instead of
                  being judged

Formula claims compare the printed closed form against direct evaluation on
the construction. Scan-backed claims group their grid by (n, k) and read
every m and kind of a group from one exhaustive `scan_many` pass; the
direction claim reads the class minimum off the same reducer that gives the
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParamsError
from .extremal import (EVEN, ODD, closed_form, closed_form_bipartite, extremal_graph,
                       join_family_graph)
from .graphs import canonical_form
from .indices import ALL_KINDS, Direction, IndexKind, direction, evaluate
from .partiteness import ClassParams
from .search import ExtremalReport, family_scan, scan_many

CONFIRMED = "confirmed"
REFUTED = "refuted"
REGIME_FLAGGED = "regime_flagged"


@dataclass(frozen=True)
class ClaimVerdict:
    """One grid tuple's outcome; `expected` is the printed value."""

    params: ClassParams
    verdict: str
    expected: int | Fraction | str | None = None
    actual: int | Fraction | str | None = None
    kind: IndexKind | None = None
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    description: str
    verdicts: tuple[ClaimVerdict, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {CONFIRMED: 0, REFUTED: 0, REGIME_FLAGGED: 0}
        for v in self.verdicts:
            out[v.verdict] += 1
        return out

    @property
    def all_confirmed(self) -> bool:
        return all(v.verdict == CONFIRMED for v in self.verdicts)

    @property
    def refuted(self) -> tuple[ClaimVerdict, ...]:
        return tuple(v for v in self.verdicts if v.verdict == REFUTED)


# claim id -> (kind, description) for the closed-form statements
_FORMULA_CLAIMS = {
    "thm4.1": (IndexKind.WIENER, "minimum Wiener closed form"),
    "thm4.2": (IndexKind.HARARY, "maximum Harary closed form"),
    "thm4.3": (IndexKind.RDD, "maximum reciprocal degree distance closed form"),
    "thm4.4": (IndexKind.ECC_DIST_SUM, "minimum eccentricity distance sum closed form"),
    "thm4.5": (IndexKind.ADJ_ECC_DIST_SUM,
               "minimum adjacent eccentric distance sum closed form"),
    "thm4.6": (IndexKind.CONN_ECC, "connective eccentricity closed form"),
    "thm4.7-m1": (IndexKind.ZAGREB_M1, "maximum first Zagreb closed form"),
    "thm4.7-m2": (IndexKind.ZAGREB_M2, "maximum second Zagreb closed form"),
    "thm4.7-pi1": (IndexKind.MULT_ZAGREB_PI1,
                   "maximum first multiplicative Zagreb closed form"),
    "thm4.7-pi2": (IndexKind.MULT_ZAGREB_PI2,
                   "maximum second multiplicative Zagreb closed form"),
}

_COROLLARY_CLAIMS = {
    "cor4.1": IndexKind.WIENER,
    "cor4.2": IndexKind.HARARY,
    "cor4.3": IndexKind.RDD,
    "cor4.4": IndexKind.ECC_DIST_SUM,
    "cor4.5": IndexKind.ADJ_ECC_DIST_SUM,
    "cor4.6": IndexKind.CONN_ECC,
    "cor4.7-m1": IndexKind.ZAGREB_M1,
    "cor4.7-m2": IndexKind.ZAGREB_M2,
    "cor4.7-pi1": IndexKind.MULT_ZAGREB_PI1,
    "cor4.7-pi2": IndexKind.MULT_ZAGREB_PI2,
}

# claim id -> (description, kinds) for the claims read off exhaustive scans
_SCAN_CLAIMS = {
    "thm3.1": ("extremal structure, monotone decreasing indices",
               tuple(k for k in ALL_KINDS if direction(k) is Direction.DECREASING)),
    "thm3.2": ("extremal structure, monotone increasing indices",
               tuple(k for k in ALL_KINDS if direction(k) is Direction.INCREASING)),
    "thm4.6-direction": ("printed inequality direction of the connective "
                         "eccentricity statement", (IndexKind.CONN_ECC,)),
}


def known_claims() -> list[str]:
    return sorted(_FORMULA_CLAIMS) + sorted(_COROLLARY_CLAIMS) + sorted(_SCAN_CLAIMS)


def claim_grid(claim: str, n_max: int = 10, k_values=(2, 3, 4),
               scan_n_max: int = 5) -> list[ClassParams]:
    """Every valid (n, m, k) with 4 <= n <= n_max and k in k_values that a
    claim is checked on: corollary claims take k = 2 only, and scan-backed
    claims stop at `scan_n_max`, since they enumerate the whole class.
    Claim ids are case-insensitive, as in `verify_theorem`."""
    claim = claim.lower()
    if claim in _COROLLARY_CLAIMS:
        k_values = (2,)
    elif claim in _SCAN_CLAIMS:
        n_max = min(n_max, scan_n_max)
    return [ClassParams(n, m, k) for n in range(4, n_max + 1) for k in k_values
            for m in range(1, n - k + 1)]


def verify_theorem(claim: str, grid=None, workers: int = 1) -> VerificationReport:
    """Check one published claim over a parameter grid, by default its
    `claim_grid`. An empty grid raises InvalidParamsError: certifying
    nothing is not a pass.
    """
    if workers < 1:
        raise InvalidParamsError(f"workers must be >= 1, got {workers}")
    claim = claim.lower()
    if claim not in known_claims():
        raise InvalidParamsError(
            f"unknown claim {claim!r}; known: {', '.join(known_claims())}")
    grid = tuple(claim_grid(claim) if grid is None else grid)
    if not grid:
        raise InvalidParamsError(f"empty parameter grid for claim {claim}")
    if claim in _FORMULA_CLAIMS:
        kind, desc = _FORMULA_CLAIMS[claim]
        return VerificationReport(
            claim=claim, description=desc,
            verdicts=tuple(_check_formula(kind, p) for p in grid))
    if claim in _COROLLARY_CLAIMS:
        kind = _COROLLARY_CLAIMS[claim]
        verdicts = []
        for p in grid:
            if p.k != 2:
                raise InvalidParamsError(f"corollary claims need k = 2, got {p}")
            verdicts.append(_check_corollary(kind, p))
        return VerificationReport(
            claim=claim,
            description=f"bipartite-case corollary for {kind.value}",
            verdicts=tuple(verdicts))
    desc, kinds = _SCAN_CLAIMS[claim]
    check = _check_direction if claim == "thm4.6-direction" else _check_structure
    m_values: dict = {}
    for p in grid:
        m_values.setdefault((p.n, p.k), set()).add(p.m)
    reports = {}
    for (n, k), ms in m_values.items():
        for (m, kind), report in scan_many(n, k, ms, kinds, workers).items():
            reports[ClassParams(n, m, k), kind] = report
    return VerificationReport(
        claim=claim, description=desc,
        verdicts=tuple(check(reports[p, kind]) for p in grid for kind in kinds))


def _check_formula(kind: IndexKind, params: ClassParams) -> ClaimVerdict:
    printed = closed_form(kind, params)
    oracle = evaluate(kind, extremal_graph(params))
    if printed.value == oracle:
        return ClaimVerdict(params=params, kind=kind, verdict=CONFIRMED,
                            expected=printed.value, actual=oracle)
    if printed.regime_restricted:
        return ClaimVerdict(
            params=params, kind=kind, verdict=REGIME_FLAGGED,
            expected=printed.value, actual=oracle,
            note="universal-vertex regime: a part of size 1 makes its vertex "
                 "eccentricity 1, not the 2 the formula assumes")
    return ClaimVerdict(params=params, kind=kind, verdict=REFUTED,
                        expected=printed.value, actual=oracle,
                        note="printed closed form differs from direct evaluation "
                             "on the construction")


def _check_corollary(kind: IndexKind, params: ClassParams) -> ClaimVerdict:
    parity = EVEN if (params.n - params.m) % 2 == 0 else ODD
    printed = closed_form_bipartite(kind, params.n, params.m)
    oracle = evaluate(kind, extremal_graph(params))
    theorem_value = closed_form(kind, params).value
    note_parity = f"{parity} case (n - m = {params.n - params.m})"
    if printed.value == oracle:
        return ClaimVerdict(params=params, kind=kind, verdict=CONFIRMED,
                            expected=printed.value, actual=oracle, note=note_parity)
    if printed.regime_restricted:
        return ClaimVerdict(
            params=params, kind=kind, verdict=REGIME_FLAGGED,
            expected=printed.value, actual=oracle,
            note=f"{note_parity}; universal-vertex regime")
    detail = ("agrees with the theorem-level value but not the construction"
              if printed.value == theorem_value
              else f"also differs from the theorem-level value {theorem_value}")
    return ClaimVerdict(params=params, kind=kind, verdict=REFUTED,
                        expected=printed.value, actual=oracle,
                        note=f"{note_parity}; {detail}")


def _check_structure(report: ExtremalReport) -> ClaimVerdict:
    """Scan-backed: the class optimum is attained on the join family, uniquely.

    This is the structural statement: the extremal graph is a clique joined
    onto a complete multipartite graph for SOME part sizes (balance is the
    separate per-index refinement checked by the formula claims). A class
    optimizer that is a family graph with the family optimum ties in
    `family_scan`, so only the tied sizes are canonicalised.
    """
    params, kind = report.params, report.kind
    family_value, family_sizes = family_scan(params, kind)
    optimizers = set(report.optimizer_codes)
    family_codes = {canonical_form(join_family_graph(params.m, sizes))
                    for sizes in family_sizes}
    if report.optimum != family_value or not optimizers <= family_codes:
        return ClaimVerdict(
            params=params, kind=kind, verdict=REFUTED,
            expected=family_value, actual=report.optimum,
            note="class optimum is not attained on the join family")
    if len(optimizers) > 1:
        return ClaimVerdict(
            params=params, kind=kind, verdict=REFUTED,
            expected=family_value, actual=report.optimum,
            note=f"{len(optimizers)} optimizer classes tie; uniqueness fails")
    return ClaimVerdict(params=params, kind=kind, verdict=CONFIRMED,
                        expected=family_value, actual=report.optimum,
                        note="unique optimizer lies in the join family")


def _check_direction(report: ExtremalReport) -> ClaimVerdict:
    """The statement prints a lower bound (>=); enumeration decides empirically.

    The index is maximized, so the class minimum is the report's `opposite`.
    """
    params, kind = report.params, report.kind
    lo, hi = report.opposite, report.optimum
    ghat_value = evaluate(kind, extremal_graph(params))
    if lo < ghat_value:
        side = ("the construction attains the class maximum"
                if hi == ghat_value else
                f"the class maximum is {hi}, also above the printed bound")
        return ClaimVerdict(
            params=params, kind=kind, verdict=REFUTED,
            expected=f"every class member >= {ghat_value} (printed lower bound)",
            actual=f"class minimum is {lo}",
            note=f"inequality direction erratum: the index is monotone increasing "
                 f"and {side}; the statement holds with <=, not >=")
    return ClaimVerdict(params=params, kind=kind, verdict=CONFIRMED,
                        expected=f"every class member >= {ghat_value}",
                        actual=f"class minimum is {lo}")
