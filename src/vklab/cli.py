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

Reports are written record by record, each as soon as it is rendered, so
no report is ever held whole as text. JSON is exactly
`json.dumps(envelopes, indent=2)` plus a newline: "[", then each envelope
as `_json_text` renders it one level in, joined by ",", newline and indent,
then "]" ("[]" when there are none). CPython's json uses its C encoder only
without `indent`, so `_json_text` hands every container that holds no
nonempty container (a verdict's params, an {num, den} value) to the C
encoder in one call and walks only the levels above in Python; on the
514 KB verify ledger that is about 40% less time than json.dumps. CSV goes
through one `csv.writer` on the output, plain text row by row.

Every command finishes its computation before the output is opened, so an
error is one `error:` line and nothing written (`index` and `vk` keep one
tuple of values per input graph until then). `index`, `vk` and `verify`
build each envelope or row only as it is written, in the `--format` asked.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from itertools import compress
from json.encoder import c_make_encoder, encode_basestring_ascii

from .errors import VklabError
from .extremal import extremal_graph, part_sizes
from .graphs import is_connected, parse_graph6, to_graph6
from .indices import ALL_KINDS, DEGREE_ONLY, IndexKind, exact, kernel
from .partiteness import ClassParams, check_k, vertex_k_partiteness
from .search import monotonicity_fuzz, numbered_graph6, scan_catalogue
from .verify import REFUTED, claim_grid, known_claims, verify_claims

_KIND_NAMES = {kind.value: kind for kind in ALL_KINDS}


def _value_json(v):
    """An exact value (int or Fraction) as {num, den}; text, bools and None
    as they are."""
    if v is None or isinstance(v, (bool, str)):
        return v
    return {"num": v.numerator, "den": v.denominator}


def _value_text(v):
    if v is None:
        return ""
    if isinstance(v, (bool, str)):
        return str(v)
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


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


_CONTAINERS = (dict, list, tuple)  # what `json` renders as objects and arrays
_JSON_DEFAULT = json.JSONEncoder().default  # raises the TypeError of json.dumps
_ENCODERS: dict = {}  # depth -> C encoder of the items at that depth


def _depth_encoder(depth: int):
    """The C encoder whose item separator is a comma, a newline and the
    indent of `depth`: it renders a container at depth - 1 that holds no
    nonempty container as `indent=2` would, brackets aside."""
    encoder = _ENCODERS.get(depth)
    if encoder is None:
        encoder = _ENCODERS[depth] = c_make_encoder(
            None, _JSON_DEFAULT, encode_basestring_ascii, None, ": ",
            ",\n" + "  " * depth, False, False, True)
    return encoder


def _json_text(obj, depth: int = 0) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, mostly in C, with every
    line after the first indented `depth` levels more: obj as an item at
    that depth of an enclosing text.

    A container that holds no nonempty container goes to the C encoder in
    one call, with the newline and indent of its items as the item
    separator; only the levels above such containers are walked here.
    Without the C encoder this is json.dumps itself (a JSON string holds
    no raw newline, so each newline it writes starts a line).
    """
    if c_make_encoder is None:
        return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)
    # `obj` as the one item of a list at depth - 1: "[", "\n" and indent,
    # obj's chunks, then "\n", indent, "]"
    out: list = []
    _json_items([obj], depth - 1, out)
    return "".join(out[2:-3])


def _json_items(obj, depth: int, out: list) -> None:
    """Append the chunks of the container `obj` at `depth`, one item a line."""
    is_dict = isinstance(obj, dict)
    inner = "\n" + "  " * (depth + 1)
    child_inner = inner + "  "
    encoder = _depth_encoder(depth + 1)
    child_encoder = _depth_encoder(depth + 2)
    out.append("{" if is_dict else "[")
    sep = inner
    for item in obj.items() if is_dict else obj:
        out.append(sep)
        sep = "," + inner
        if is_dict:
            key, item = item
            if not isinstance(key, str):
                key = _json_key(key)
            out += (encode_basestring_ascii(key), ": ")
        if not (isinstance(item, _CONTAINERS) and item):
            out += encoder(item, depth + 1)
            continue
        for value in item.values() if isinstance(item, dict) else item:
            if isinstance(value, _CONTAINERS) and value:
                _json_items(item, depth + 1, out)
                break
        else:  # no nonempty container inside: one C call
            text = "".join(child_encoder(item, depth + 2))
            out += (text[0], child_inner, text[1:-1], inner, text[-1])
    out += ("\n", "  " * depth, "}" if is_dict else "]")


def _json_key(key) -> str:
    """A key that is not text as `json` writes it: a bool, None, int or
    float as its JSON literal."""
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(records, header, fmt, out):
    """Write one report batch record by record, each as soon as it is
    rendered: envelopes for JSON, rows for plain/CSV."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if fmt == "json":  # json.dumps(list(records), indent=2) + "\n"
            sep = "[\n  "
            for record in records:
                fh.write(sep + _json_text(record, 1))
                sep = ",\n  "
            fh.write("[]\n" if sep == "[\n  " else "\n]\n")
        elif fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(records)
        else:
            fh.writelines("  ".join(map(str, row)) + "\n" for row in records)


def _input_graphs(args, measure):
    """Yield (label, graph6, measure(g)) for the graph of --graph6 or each
    graph of --file; label is the source line.

    A corpus line that parses but that `measure` refuses is an error that
    names its line, as a malformed line is. Under --lenient both are
    skipped instead, and each is reported on stderr, in line order, once the
    file has been read. graph6 is ASCII: the file is decoded as such, and a
    byte outside it becomes one invalid character of its line.
    """
    if args.graph6 is not None:
        g = parse_graph6(args.graph6)
        yield "-", to_graph6(g), measure(g)
        return
    skipped = [] if args.lenient else None
    with open(args.file, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, g in numbered_graph6(fh, skipped):
            try:
                value = measure(g)
            except VklabError as exc:
                if skipped is None:
                    raise VklabError(f"line {lineno}: {exc}") from None
                skipped.append((lineno, str(exc)))
                continue
            yield str(lineno), to_graph6(g), value
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
    values = kernel(kinds)
    # distance and eccentricity kinds are undefined on a disconnected graph
    # (null in JSON, "undefined" in plain and CSV); the rest read degrees
    degree_only = [kind in DEGREE_ONLY for kind in kinds]
    degree_values = kernel(compress(kinds, degree_only)) if any(degree_only) else None

    def measure(g):
        if is_connected(g):
            vals = values(g)
        else:
            found = iter(degree_values(g)) if degree_values else None
            vals = [next(found) if d else None for d in degree_only]
        return [None if v is None else exact(kind, v, g.n) for kind, v in zip(kinds, vals)]

    # (label, graph6, values): every value before the output opens
    lines = list(_input_graphs(args, measure))
    if args.format == "json":
        records = (_envelope("index", params={"line": label, "graph6": g6},
                             kind=kind, optimum=val)
                   for label, g6, vals in lines for kind, val in zip(kinds, vals))
    else:
        records = ([label, g6, kind.value, "undefined" if val is None else _value_text(val)]
                   for label, g6, vals in lines for kind, val in zip(kinds, vals))
    _emit(records, ["line", "graph6", "kind", "value"], args.format, args.out)
    return 0


def _cmd_vk(args) -> int:
    check_k(args.k)  # a bad --k is one error, before any line is read
    lines = list(_input_graphs(args, lambda g: vertex_k_partiteness(g, args.k)))
    if args.format == "json":
        records = (_envelope("vk", params={"line": label, "graph6": g6, "k": args.k},
                             optimum=v) for label, g6, v in lines)
    else:
        records = ([label, g6, args.k, v] for label, g6, v in lines)
    _emit(records, ["line", "graph6", "k", "value"], args.format, args.out)
    return 0


def _cmd_construct(args) -> int:
    params = ClassParams(args.n, args.m, args.k)
    spec = part_sizes(params)
    g6 = to_graph6(extremal_graph(params))
    if args.format == "json":
        records = [_envelope(
            "construct",
            params={"n": params.n, "m": params.m, "k": params.k,
                    "s": spec.s, "t": spec.t, "sizes": list(spec.sizes)},
            optimizers=[g6])]
    else:
        records = [[params.n, params.m, params.k, spec.s, spec.t,
                    " ".join(map(str, spec.sizes)), g6]]
    _emit(records, ["n", "m", "k", "s", "t", "sizes", "graph6"], args.format, args.out)
    return 0


def _cmd_scan(args) -> int:
    params = ClassParams(args.n, args.m, args.k)
    kinds = _selected_kinds(args.kind)
    as_json = args.format == "json"
    records = []
    findings = False
    reports = scan_catalogue((params,), kinds, args.workers)
    for kind in kinds:
        report = reports[(params, kind)]
        optimizers = report.optimizer_graph6()
        flags = {
            "matches_construction": report.matches_construction,
            "matches_closed_form": report.matches_closed_form,
            "unique_optimizer": len(report.optimizer_codes) == 1,
        }
        if not (flags["matches_construction"] and flags["matches_closed_form"]):
            findings = True
        records.append(
            _envelope("scan",
                      params={"n": params.n, "m": params.m, "k": params.k,
                              "class_size": report.class_size},
                      kind=kind, optimum=report.optimum, optimizers=optimizers,
                      flags=flags) if as_json else
            [params.n, params.m, params.k, kind.value, _value_text(report.optimum),
             report.class_size, flags["matches_construction"],
             flags["matches_closed_form"], flags["unique_optimizer"], ";".join(optimizers)])
    _emit(records,
          ["n", "m", "k", "kind", "optimum", "class_size", "matches_construction",
           "matches_closed_form", "unique_optimizer", "optimizers"],
          args.format, args.out)
    return 2 if findings else 0


def _cmd_verify(args) -> int:
    claims = known_claims() if args.claim.lower() == "all" else [args.claim]
    k_values = tuple(range(2, args.kmax + 1))
    grids = {claim: claim_grid(claim, args.nmax, k_values, args.scan_nmax)
             for claim in claims}
    reports = verify_claims(grids, workers=args.workers)
    code = 2 if any(report.counts[REFUTED] for report in reports) else 0
    # each claim's envelope or rows are built only as they are written;
    # report.claim is the canonical (lower-case) id, whatever the case typed
    if args.format == "json":
        records = (_envelope(
            report.claim,
            params={"n_max": args.nmax, "k_values": list(k_values)},
            flags=report.counts,
            verdicts=[{"params": {"n": v.params.n, "m": v.params.m, "k": v.params.k},
                       "kind": v.kind.value,
                       "verdict": v.verdict,
                       "expected": _value_json(v.expected),
                       "actual": _value_json(v.actual),
                       "note": v.note}
                      for v in report.verdicts])
            for report in reports)
    else:
        records = ([report.claim, v.params.n, v.params.m, v.params.k,
                    v.kind.value, v.verdict,
                    _value_text(v.expected), _value_text(v.actual), v.note]
                   for report in reports for v in report.verdicts)
    _emit(records,
          ["claim", "n", "m", "k", "kind", "verdict", "expected", "actual", "note"],
          args.format, args.out)
    return code


def _cmd_fuzz(args) -> int:
    kinds = _selected_kinds(args.kind)
    as_json = args.format == "json"
    records = []
    violations = 0
    for kind in kinds:
        report = monotonicity_fuzz(kind, args.trials, (args.nmin, args.nmax), args.seed)
        violations += report.violations
        records.append(
            _envelope("fuzz",
                      params={"trials": args.trials, "n_min": args.nmin,
                              "n_max": args.nmax, "seed": args.seed},
                      kind=kind,
                      flags={"violations": report.violations,
                             "resamples": report.resamples},
                      verdicts=[{"graph6": g6, "u": u, "v": v}
                                for g6, u, v in report.counterexamples]) if as_json else
            [kind.value, args.trials, report.violations, report.resamples, args.seed,
             ";".join(f"{g6}+({u},{v})" for g6, u, v in report.counterexamples)])
    _emit(records,
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
                       help="skip malformed or unevaluable corpus lines instead of aborting")

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
    # exact values run past CPython's int -> str digit cap (from 3.10.7 on;
    # mult_zagreb_pi2 of K64 has 7,255 digits), so main lifts it while it
    # runs and puts it back for in-process callers
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (VklabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
