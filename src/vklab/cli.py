"""Command-line front end.

One-shot batch commands over graph6 input or class parameters:

  index      evaluate indices on graphs (inline graph6 or a corpus file)
  vk         vertex k-partiteness of graphs
  construct  build the balanced extremal family member
  scan       exhaustive extremal scan of a class
  verify     certify published claims over a parameter grid
  fuzz       randomized edge-addition monotonicity checks

Every report renders as plain text, JSON or CSV with identical exact values:
rationals are {num, den} objects in JSON and "p/q" strings elsewhere, never
floats. Exit status: 0 all claims confirmed, 2 refutations/violations found
(CI can gate on errata), 1 operational or usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .errors import VklabError
from .extremal import extremal_graph, part_sizes
from .graphs import is_connected, parse_graph6, to_graph6
from .indices import ALL_KINDS, DEGREE_ONLY, IndexKind, evaluate
from .metrics import compute_metrics
from .partiteness import ClassParams, vertex_k_partiteness
from .search import monotonicity_fuzz, numbered_graph6, scan_many
from .verify import REFUTED, claim_grid, known_claims, verify_theorem

_KIND_NAMES = {kind.value: kind for kind in ALL_KINDS}


def _value_json(v):
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    frac = Fraction(v)
    return {"num": frac.numerator, "den": frac.denominator}


def _value_text(v):
    if v is None:
        return ""
    if isinstance(v, bool) or isinstance(v, str):
        return str(v)
    frac = Fraction(v)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def _envelope(claim, params=None, kind=None, optimum=None, optimizers=(),
              flags=None, verdicts=()):
    return {
        "claim": claim,
        "params": params or {},
        "kind": kind.value if isinstance(kind, IndexKind) else kind,
        "optimum": _value_json(optimum),
        "optimizers": list(optimizers),
        "flags": flags or {},
        "verdicts": list(verdicts),
    }


def _emit(envelopes, rows, header, fmt, out):
    """Render one report batch; JSON gets envelopes, plain/CSV get rows."""
    if fmt == "json":
        text = json.dumps(envelopes, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "".join("  ".join(str(c) for c in row) + "\n" for row in rows)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _input_graphs(args):
    """Yield (label, Graph) from --graph6 or --file; label is the source line.

    Under --lenient, each skipped corpus line is reported on stderr once the
    file has been read. graph6 is ASCII: the file is decoded as such, and a
    byte outside it becomes one invalid character of its line.
    """
    if args.graph6 is not None:
        yield "-", parse_graph6(args.graph6)
        return
    skipped = [] if args.lenient else None
    with open(args.file, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, g in numbered_graph6(fh, skipped):
            yield str(lineno), g
    for lineno, message in skipped or ():
        print(f"skipped line {lineno}: {message}", file=sys.stderr)


def _selected_kinds(name: str) -> list[IndexKind]:
    if name == "all":
        return list(ALL_KINDS)
    if name not in _KIND_NAMES:
        raise VklabError(
            f"unknown kind {name!r}; choose from: all, {', '.join(_KIND_NAMES)}")
    return [_KIND_NAMES[name]]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_index(args) -> int:
    kinds = _selected_kinds(args.kind)
    need_metrics = any(kind not in DEGREE_ONLY for kind in kinds)
    envelopes, rows = [], []
    for label, g in _input_graphs(args):
        g6 = to_graph6(g)
        # distance and eccentricity kinds are undefined on a disconnected
        # graph: null in JSON, "undefined" in plain and CSV
        connected = is_connected(g)
        # one BFS pass serves every kind; `evaluate` rejects n = 1 itself
        metrics = compute_metrics(g) if need_metrics and connected and g.n >= 2 else None
        for kind in kinds:
            val = evaluate(kind, g, metrics) if connected or kind in DEGREE_ONLY else None
            envelopes.append(_envelope(
                "index", params={"line": label, "graph6": g6},
                kind=kind, optimum=val))
            rows.append([label, g6, kind.value,
                         "undefined" if val is None else _value_text(val)])
    _emit(envelopes, rows, ["line", "graph6", "kind", "value"], args.format, args.out)
    return 0


def _cmd_vk(args) -> int:
    envelopes, rows = [], []
    for label, g in _input_graphs(args):
        g6 = to_graph6(g)
        v = vertex_k_partiteness(g, args.k)
        envelopes.append(_envelope(
            "vk", params={"line": label, "graph6": g6, "k": args.k}, optimum=v))
        rows.append([label, g6, args.k, v])
    _emit(envelopes, rows, ["line", "graph6", "k", "value"], args.format, args.out)
    return 0


def _cmd_construct(args) -> int:
    params = ClassParams(args.n, args.m, args.k)
    spec = part_sizes(params)
    g6 = to_graph6(extremal_graph(params))
    envelopes = [_envelope(
        "construct",
        params={"n": params.n, "m": params.m, "k": params.k,
                "s": spec.s, "t": spec.t, "sizes": list(spec.sizes)},
        optimizers=[g6])]
    rows = [[params.n, params.m, params.k, spec.s, spec.t,
             " ".join(map(str, spec.sizes)), g6]]
    _emit(envelopes, rows, ["n", "m", "k", "s", "t", "sizes", "graph6"],
          args.format, args.out)
    return 0


def _cmd_scan(args) -> int:
    params = ClassParams(args.n, args.m, args.k)
    kinds = _selected_kinds(args.kind)
    envelopes, rows = [], []
    findings = False
    reports = scan_many(params.n, params.k, (params.m,), kinds, workers=args.workers)
    for kind in kinds:
        report = reports[(params.m, kind)]
        optimizers = report.optimizer_graph6()
        flags = {
            "matches_construction": report.matches_construction,
            "matches_closed_form": report.matches_closed_form,
            "unique_optimizer": len(report.optimizer_codes) == 1,
        }
        if not (report.matches_construction and report.matches_closed_form):
            findings = True
        envelopes.append(_envelope(
            "scan",
            params={"n": params.n, "m": params.m, "k": params.k,
                    "class_size": report.class_size},
            kind=kind, optimum=report.optimum, optimizers=optimizers, flags=flags))
        rows.append([params.n, params.m, params.k, kind.value,
                     _value_text(report.optimum), report.class_size,
                     flags["matches_construction"], flags["matches_closed_form"],
                     flags["unique_optimizer"], ";".join(optimizers)])
    _emit(envelopes, rows,
          ["n", "m", "k", "kind", "optimum", "class_size", "matches_construction",
           "matches_closed_form", "unique_optimizer", "optimizers"],
          args.format, args.out)
    return 2 if findings else 0


def _cmd_verify(args) -> int:
    claims = known_claims() if args.claim == "all" else [args.claim]
    k_values = tuple(range(2, args.kmax + 1))
    envelopes, rows = [], []
    any_refuted = False
    for claim in claims:
        grid = claim_grid(claim, args.nmax, k_values, args.scan_nmax)
        report = verify_theorem(claim, grid, workers=args.workers)
        verdict_objs = []
        for v in report.verdicts:
            verdict_objs.append({
                "params": {"n": v.params.n, "m": v.params.m, "k": v.params.k},
                "kind": v.kind.value if v.kind else None,
                "verdict": v.verdict,
                "expected": _value_json(v.expected),
                "actual": _value_json(v.actual),
                "note": v.note,
            })
            rows.append([claim, v.params.n, v.params.m, v.params.k,
                         v.kind.value if v.kind else "", v.verdict,
                         _value_text(v.expected), _value_text(v.actual), v.note])
        counts = report.counts
        if counts[REFUTED]:
            any_refuted = True
        envelopes.append(_envelope(
            claim,
            params={"n_max": args.nmax, "k_values": list(k_values)},
            flags={"confirmed": counts["confirmed"],
                   "refuted": counts["refuted"],
                   "regime_flagged": counts["regime_flagged"]},
            verdicts=verdict_objs))
    _emit(envelopes, rows,
          ["claim", "n", "m", "k", "kind", "verdict", "expected", "actual", "note"],
          args.format, args.out)
    return 2 if any_refuted else 0


def _cmd_fuzz(args) -> int:
    kinds = _selected_kinds(args.kind)
    envelopes, rows = [], []
    violations = 0
    for kind in kinds:
        report = monotonicity_fuzz(kind, args.trials, (args.nmin, args.nmax), args.seed)
        violations += report.violations
        counterexamples = [
            {"graph6": g6, "u": u, "v": v} for g6, u, v in report.counterexamples]
        envelopes.append(_envelope(
            "fuzz", params={"trials": args.trials, "n_min": args.nmin,
                            "n_max": args.nmax, "seed": args.seed},
            kind=kind,
            flags={"violations": report.violations, "resamples": report.resamples},
            verdicts=counterexamples))
        rows.append([kind.value, args.trials, report.violations, report.resamples,
                     args.seed,
                     ";".join(f"{g6}+({u},{v})" for g6, u, v in report.counterexamples)])
    _emit(envelopes, rows,
          ["kind", "trials", "violations", "resamples", "seed", "counterexamples"],
          args.format, args.out)
    return 2 if violations else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a VklabError, so it exits 1 like every other
    operational error; argparse's own exit 2 would read as a finding."""

    def error(self, message):
        raise VklabError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vklab",
        description="Exact topological indices, vertex k-partiteness, extremal "
                    "constructions and exhaustive certification scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
        p.add_argument("--out", help="write the report here instead of stdout")

    def add_input(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--graph6", help="one inline graph6 line")
        src.add_argument("--file", help="graph6 corpus, one graph per line")
        p.add_argument("--lenient", action="store_true",
                       help="skip malformed corpus lines instead of aborting")

    p = sub.add_parser("index", help="evaluate topological indices")
    add_input(p)
    p.add_argument("--kind", default="all")
    add_common(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("vk", help="vertex k-partiteness")
    add_input(p)
    p.add_argument("--k", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_vk)

    p = sub.add_parser("construct", help="build the balanced extremal member")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("scan", help="exhaustive extremal scan of one class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", default="all")
    p.add_argument("--workers", type=int, default=1)
    add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="certify published claims on a grid")
    p.add_argument("--claim", default="all",
                   help=f"one of: all, {', '.join(known_claims())}")
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--scan-nmax", type=int, default=5, dest="scan_nmax",
                   help="grid cap for scan-backed claims")
    p.add_argument("--workers", type=int, default=1)
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fuzz", help="randomized monotonicity checks")
    p.add_argument("--kind", default="all")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--nmin", type=int, default=4)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    add_common(p)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (VklabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
