"""Claim-by-claim certification of the published statements.

Each claim id names one printed statement: the two structural extremality
theorems (scan-backed), the per-index closed-form statements on the balanced
construction, the bipartite-case corollary lines, and the inequality
direction of the connective-eccentricity statement. `verify_claims` checks
one or more claims, each over a grid of class parameters, and returns a
report per claim with a verdict per tuple:

  confirmed       the printed statement matches the independent oracle
  refuted         it does not; both values are carried in the verdict
  regime_flagged  the statement's eccentricity assumption (every part of
                  size >= 2) fails for the tuple, so the printed value is
                  reported side by side with the oracle value instead of
                  being judged

Formula claims compare the printed closed form against direct evaluation on
the construction. Scan-backed claims read every class and kind from one
exhaustive catalogue pass per n per run, shared by all of them; the
direction claim reads the class minimum off the same reducer that gives the
optimum. Within one run each construction and each join-family member is
evaluated once, and each printed closed form is computed once. No verdict,
report or value outlives the run; only the catalogue levels stay cached in
`vklab.search`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParamsError
from .extremal import (EVEN, ODD, ClosedFormValue, closed_form, closed_form_bipartite,
                       extremal_graph, join_family_graph)
from .graphs import canonical_form
from .indices import ALL_KINDS, Direction, IndexKind, direction, exact, kernel
from .partiteness import ClassParams
from .search import ExtremalReport, check_scan, family_optima, scan_catalogue

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
# the scan claims checked against the join family; the other one reads the
# class minimum against the construction
_STRUCTURE_CLAIMS = frozenset({"thm3.1", "thm3.2"})


def known_claims() -> list[str]:
    return sorted(_FORMULA_CLAIMS) + sorted(_COROLLARY_CLAIMS) + sorted(_SCAN_CLAIMS)


def claim_grid(claim: str, n_max: int = 10, k_values=(2, 3, 4),
               scan_n_max: int = 5) -> list[ClassParams]:
    """Every valid (n, m, k) with 4 <= n <= n_max and k in k_values that a
    claim is checked on: corollary claims take k = 2 only, and scan-backed
    claims stop at `scan_n_max`, since they enumerate the whole class.
    Claim ids are case-insensitive, as in `verify_claims`."""
    claim = claim.lower()
    if claim in _COROLLARY_CLAIMS:
        k_values = (2,)
    elif claim in _SCAN_CLAIMS:
        n_max = min(n_max, scan_n_max)
    return [ClassParams(n, m, k) for n in range(4, n_max + 1) for k in k_values
            for m in range(1, n - k + 1)]


def verify_claims(grids: dict, workers: int = 1) -> list[VerificationReport]:
    """Check several published claims, {claim: grid}, and return their
    reports in order; a grid of None is the claim's `claim_grid`.

    All graph work is shared inside the call, and no value or report
    outlives it (only `vklab.search` keeps its catalogue levels): each
    balanced construction is built and measured once per class, the
    catalogue is scanned once per n for every class and kind the scan-backed
    claims ask for, each join-family member of a class is evaluated once
    for all kinds, and each (class, kind) closed form of the formula and
    corollary claims is computed once. Every claim id, grid and `workers`
    is checked before any of that work: an unknown claim, an empty grid
    (certifying nothing is not a pass), a corollary grid with k != 2 or
    workers < 1 is an InvalidParamsError, and a scan-backed grid outside
    the scan range a SizeCapError.
    """
    if workers < 1:
        raise InvalidParamsError(f"workers must be >= 1, got {workers}")
    jobs = []
    for claim, grid in grids.items():
        claim = claim.lower()
        if claim not in known_claims():
            raise InvalidParamsError(
                f"unknown claim {claim!r}; known: {', '.join(known_claims())}")
        grid = tuple(claim_grid(claim) if grid is None else grid)
        if not grid:
            raise InvalidParamsError(f"empty parameter grid for claim {claim}")
        for p in grid:
            if claim in _COROLLARY_CLAIMS and p.k != 2:
                raise InvalidParamsError(f"corollary claims need k = 2, got {p}")
            if claim in _SCAN_CLAIMS:
                check_scan(p.n, workers)
        jobs.append((claim, grid))

    built: dict = {}    # params -> kinds valued on the balanced construction
    scanned: dict = {}  # n -> (classes, kinds) of its one catalogue pass
    family: dict = {}   # params -> kinds optimised over the join family
    printed: dict = {}  # (params, kind) -> closed form of a formula or corollary claim
    for claim, grid in jobs:
        kinds = _claim_kinds(claim)
        for p in grid:
            if claim not in _SCAN_CLAIMS:
                (kind,) = kinds
                if (p, kind) not in printed:
                    printed[p, kind] = closed_form(kind, p)
            else:
                classes, scan_kinds = scanned.setdefault(p.n, (set(), set()))
                classes.add(p)
                scan_kinds.update(kinds)
            if claim not in _STRUCTURE_CLAIMS:
                built.setdefault(p, set()).update(kinds)
            else:
                family.setdefault(p, set()).update(kinds)
    values = {}
    for p, kinds in built.items():
        kinds = tuple(kinds)
        for kind, scaled in zip(kinds, kernel(kinds)(extremal_graph(p))):
            values[p, kind] = exact(kind, scaled, p.n)
    reports = {}
    for classes, kinds in scanned.values():
        reports.update(scan_catalogue(classes, kinds, workers))
    optima = {p: family_optima(p, kinds) for p, kinds in family.items()}
    family_codes: dict = {}  # (m, sizes) -> canonical code of that family member

    out = []
    for claim, grid in jobs:
        if claim in _FORMULA_CLAIMS:
            kind, desc = _FORMULA_CLAIMS[claim]
            verdicts = [_check_formula(kind, p, printed[p, kind], values[p, kind])
                        for p in grid]
        elif claim in _COROLLARY_CLAIMS:
            kind = _COROLLARY_CLAIMS[claim]
            desc = f"bipartite-case corollary for {kind.value}"
            verdicts = [_check_corollary(kind, p, printed[p, kind], values[p, kind])
                        for p in grid]
        elif claim in _STRUCTURE_CLAIMS:
            desc, kinds = _SCAN_CLAIMS[claim]
            verdicts = [_check_structure(reports[p, kind], optima[p][kind], family_codes)
                        for p in grid for kind in kinds]
        else:
            desc, kinds = _SCAN_CLAIMS[claim]
            verdicts = [_check_direction(reports[p, kind], values[p, kind])
                        for p in grid for kind in kinds]
        out.append(VerificationReport(claim=claim, description=desc,
                                      verdicts=tuple(verdicts)))
    return out


def _claim_kinds(claim: str) -> tuple[IndexKind, ...]:
    if claim in _FORMULA_CLAIMS:
        return (_FORMULA_CLAIMS[claim][0],)
    if claim in _COROLLARY_CLAIMS:
        return (_COROLLARY_CLAIMS[claim],)
    return _SCAN_CLAIMS[claim][1]


def _check_formula(kind: IndexKind, params: ClassParams, printed: ClosedFormValue,
                   oracle) -> ClaimVerdict:
    """`printed` is the closed form of the claim, `oracle` the index
    evaluated on the balanced construction."""
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


def _check_corollary(kind: IndexKind, params: ClassParams, theorem: ClosedFormValue,
                     oracle) -> ClaimVerdict:
    """`theorem` is the general closed form at the same class, `oracle`
    the index evaluated on the balanced construction."""
    parity = EVEN if (params.n - params.m) % 2 == 0 else ODD
    printed = closed_form_bipartite(kind, params.n, params.m)
    theorem_value = theorem.value
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


def _check_structure(report: ExtremalReport, family_optimum, codes: dict) -> ClaimVerdict:
    """Scan-backed: the class optimum is attained on the join family, uniquely.

    This is the structural statement: the extremal graph is a clique joined
    onto a complete multipartite graph for SOME part sizes (balance is the
    separate per-index refinement checked by the formula claims).
    `family_optimum` is (value, tied size lists) over the family. A class
    optimizer that is a family graph with the family optimum is one of the
    tied sizes, so only those are canonicalised, each once per `codes`, a
    {(m, sizes): canonical code} dict shared by the checks of one run.
    """
    params, kind = report.params, report.kind
    family_value, family_sizes = family_optimum
    optimizers = set(report.optimizer_codes)
    family_codes = set()
    for sizes in family_sizes:
        key = (params.m, sizes)
        if key not in codes:
            codes[key] = canonical_form(join_family_graph(params.m, sizes))
        family_codes.add(codes[key])
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


def _check_direction(report: ExtremalReport, ghat_value) -> ClaimVerdict:
    """The statement prints a lower bound (>=); enumeration decides empirically.

    The index is maximized, so the class minimum is the report's `opposite`;
    `ghat_value` is the index on the balanced construction.
    """
    params, kind = report.params, report.kind
    lo, hi = report.opposite, report.optimum
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
