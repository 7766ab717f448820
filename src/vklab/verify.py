"""Claim-by-claim certification of the published statements.

Each claim id names one printed statement: the two structural extremality
theorems (scan-backed), the per-index closed-form statements on the balanced
construction, the bipartite-case corollary lines, and the inequality
direction of the connective-eccentricity statement. One registry, `_CLAIMS`,
maps each id, in ledger order, to its check and the kinds it is checked
for; the grid policy, the input checks, the work planning and the verdicts
all read it. `verify_claims` checks one or more claims, each over a grid of
class parameters, and returns a report per claim with a verdict per tuple
and kind:

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
from .extremal import (EVEN, ODD, closed_form, closed_form_bipartite, extremal_graph,
                       join_family_graph)
from .graphs import canonical_form
from .indices import ALL_KINDS, Direction, IndexKind, direction, exact, kernel
from .partiteness import ClassParams
from .search import check_scan, family_optima, scan_catalogue

CONFIRMED = "confirmed"
REFUTED = "refuted"
REGIME_FLAGGED = "regime_flagged"


@dataclass(frozen=True)
class ClaimVerdict:
    """One grid tuple's outcome for one kind; `expected` is the printed value."""

    params: ClassParams
    kind: IndexKind
    verdict: str
    expected: int | Fraction | str
    actual: int | Fraction | str
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    verdicts: tuple[ClaimVerdict, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {CONFIRMED: 0, REFUTED: 0, REGIME_FLAGGED: 0}
        for v in self.verdicts:
            out[v.verdict] += 1
        return out


@dataclass(frozen=True)
class _Run:
    """What one `verify_claims` call computes once for all its checks."""

    values: dict    # (params, kind) -> index value on the balanced construction
    printed: dict   # (params, kind) -> theorem closed form (formula and corollary claims)
    reports: dict   # (params, kind) -> scan report of the class
    optima: dict    # params -> {kind: (value, tied size lists)} over the join family
    codes: dict     # (m, sizes) -> canonical code of that join-family member


def _check_formula(params: ClassParams, kind: IndexKind, run: _Run) -> ClaimVerdict:
    """The printed closed form against the index on the balanced construction."""
    printed, oracle = run.printed[params, kind], run.values[params, kind]
    if printed.value == oracle:
        return ClaimVerdict(params, kind, CONFIRMED, printed.value, oracle)
    if printed.regime_restricted:
        return ClaimVerdict(params, kind, REGIME_FLAGGED, printed.value, oracle,
                            "universal-vertex regime: a part of size 1 makes its vertex "
                            "eccentricity 1, not the 2 the formula assumes")
    return ClaimVerdict(params, kind, REFUTED, printed.value, oracle,
                        "printed closed form differs from direct evaluation "
                        "on the construction")


def _check_corollary(params: ClassParams, kind: IndexKind, run: _Run) -> ClaimVerdict:
    """The printed k = 2 line for the parity of n - m against the index on the
    balanced construction; a refutation says how it stands to the general
    closed form at the same class."""
    printed = closed_form_bipartite(kind, params.n, params.m)
    oracle = run.values[params, kind]
    parity = EVEN if (params.n - params.m) % 2 == 0 else ODD
    note = f"{parity} case (n - m = {params.n - params.m})"
    if printed.value == oracle:
        return ClaimVerdict(params, kind, CONFIRMED, printed.value, oracle, note)
    if printed.regime_restricted:
        return ClaimVerdict(params, kind, REGIME_FLAGGED, printed.value, oracle,
                            f"{note}; universal-vertex regime")
    theorem = run.printed[params, kind].value
    detail = ("agrees with the theorem-level value but not the construction"
              if printed.value == theorem
              else f"also differs from the theorem-level value {theorem}")
    return ClaimVerdict(params, kind, REFUTED, printed.value, oracle, f"{note}; {detail}")


def _check_structure(params: ClassParams, kind: IndexKind, run: _Run) -> ClaimVerdict:
    """Scan-backed: the class optimum is attained on the join family, uniquely.

    This is the structural statement: the extremal graph is a clique joined
    onto a complete multipartite graph for SOME part sizes (balance is the
    separate per-index refinement checked by the formula claims). A class
    optimizer that is a family graph with the family optimum is one of the
    tied sizes, so only those are canonicalised, each once per run.
    """
    report = run.reports[params, kind]
    family_value, family_sizes = run.optima[params][kind]
    optimizers = set(report.optimizer_codes)
    family_codes = set()
    for sizes in family_sizes:
        key = (params.m, sizes)
        if key not in run.codes:
            run.codes[key] = canonical_form(join_family_graph(params.m, sizes))
        family_codes.add(run.codes[key])
    if report.optimum != family_value or not optimizers <= family_codes:
        return ClaimVerdict(params, kind, REFUTED, family_value, report.optimum,
                            "class optimum is not attained on the join family")
    if len(optimizers) > 1:
        return ClaimVerdict(params, kind, REFUTED, family_value, report.optimum,
                            f"{len(optimizers)} optimizer classes tie; uniqueness fails")
    return ClaimVerdict(params, kind, CONFIRMED, family_value, report.optimum,
                        "unique optimizer lies in the join family")


def _check_direction(params: ClassParams, kind: IndexKind, run: _Run) -> ClaimVerdict:
    """The statement prints a lower bound (>=); enumeration decides empirically.

    The index is maximized, so the class minimum is the scan report's
    `opposite`; the bound is the index on the balanced construction.
    """
    report, ghat_value = run.reports[params, kind], run.values[params, kind]
    lo, hi = report.opposite, report.optimum
    if lo < ghat_value:
        side = ("the construction attains the class maximum"
                if hi == ghat_value else
                f"the class maximum is {hi}, also above the printed bound")
        return ClaimVerdict(params, kind, REFUTED,
                            f"every class member >= {ghat_value} (printed lower bound)",
                            f"class minimum is {lo}",
                            f"inequality direction erratum: the index is monotone increasing "
                            f"and {side}; the statement holds with <=, not >=")
    return ClaimVerdict(params, kind, CONFIRMED, f"every class member >= {ghat_value}",
                        f"class minimum is {lo}")


# statement number -> kind of the closed-form statement thm<number> and its
# k = 2 corollary line cor<number>
_STATEMENTS = {
    "4.1": IndexKind.WIENER, "4.2": IndexKind.HARARY, "4.3": IndexKind.RDD,
    "4.4": IndexKind.ECC_DIST_SUM, "4.5": IndexKind.ADJ_ECC_DIST_SUM,
    "4.6": IndexKind.CONN_ECC, "4.7-m1": IndexKind.ZAGREB_M1,
    "4.7-m2": IndexKind.ZAGREB_M2, "4.7-pi1": IndexKind.MULT_ZAGREB_PI1,
    "4.7-pi2": IndexKind.MULT_ZAGREB_PI2,
}

# claim id -> (check, kinds), in ledger order
_CLAIMS = {
    **{f"thm{no}": (_check_formula, (kind,)) for no, kind in _STATEMENTS.items()},
    **{f"cor{no}": (_check_corollary, (kind,)) for no, kind in _STATEMENTS.items()},
    "thm3.1": (_check_structure,
               tuple(k for k in ALL_KINDS if direction(k) is Direction.DECREASING)),
    "thm3.2": (_check_structure,
               tuple(k for k in ALL_KINDS if direction(k) is Direction.INCREASING)),
    "thm4.6-direction": (_check_direction, (IndexKind.CONN_ECC,)),
}
# the checks that read exhaustive scans, so stop at the scan cap
_SCANNED = (_check_structure, _check_direction)


def known_claims() -> list[str]:
    return list(_CLAIMS)


def _claim(claim: str):
    """(check, kinds) of a claim id, whatever its case, or InvalidParamsError."""
    claim = claim.lower()
    if claim not in _CLAIMS:
        raise InvalidParamsError(
            f"unknown claim {claim!r}; known: {', '.join(known_claims())}")
    return _CLAIMS[claim]


def claim_grid(claim: str, n_max: int = 10, k_values=(2, 3, 4),
               scan_n_max: int = 5) -> list[ClassParams]:
    """Every valid (n, m, k) with 4 <= n <= n_max and k in k_values that a
    claim is checked on: corollary claims take k = 2 only, and scan-backed
    claims stop at `scan_n_max`, since they enumerate the whole class.
    Claim ids are case-insensitive, as in `verify_claims`, and an unknown
    one is an InvalidParamsError."""
    check, _ = _claim(claim)
    if check is _check_corollary:
        k_values = (2,)
    elif check in _SCANNED:
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
        check, kinds = _claim(claim)
        grid = tuple(claim_grid(claim) if grid is None else grid)
        if not grid:
            raise InvalidParamsError(f"empty parameter grid for claim {claim}")
        for p in grid:
            if check is _check_corollary and p.k != 2:
                raise InvalidParamsError(f"corollary claims need k = 2, got {p}")
            if check in _SCANNED:
                check_scan(p.n, workers)
        jobs.append((claim, check, kinds, grid))

    built: dict = {}    # params -> kinds valued on the balanced construction
    scanned: dict = {}  # n -> (classes, kinds) of its one catalogue pass
    family: dict = {}   # params -> kinds optimised over the join family
    printed: dict = {}  # (params, kind) -> closed form of a formula or corollary claim
    for _, check, kinds, grid in jobs:
        for p in grid:
            if check in _SCANNED:
                classes, scan_kinds = scanned.setdefault(p.n, (set(), set()))
                classes.add(p)
                scan_kinds.update(kinds)
            else:
                for kind in kinds:
                    if (p, kind) not in printed:
                        printed[p, kind] = closed_form(kind, p)
            work = family if check is _check_structure else built
            work.setdefault(p, set()).update(kinds)
    values = {}
    for p, kinds in built.items():
        kinds = tuple(kinds)
        for kind, scaled in zip(kinds, kernel(kinds)(extremal_graph(p))):
            values[p, kind] = exact(kind, scaled, p.n)
    reports = {}
    for classes, kinds in scanned.values():
        reports.update(scan_catalogue(classes, kinds, workers))
    optima = {p: family_optima(p, kinds) for p, kinds in family.items()}
    run = _Run(values, printed, reports, optima, {})
    return [VerificationReport(claim, tuple(check(p, kind, run) for p in grid for kind in kinds))
            for claim, check, kinds, grid in jobs]
