"""Command-line behaviors: worked examples, golden JSON, CSV/JSON value
agreement, and the exit-code contract (0 confirmed, 2 findings, 1 error)."""

import csv
import decimal
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vklab
from vklab import cli
from vklab.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(*argv):
    """`python -m vklab` in a child process, so an uncaught exception shows
    up as a traceback on stderr instead of failing the test itself."""
    env = dict(os.environ, PYTHONPATH=str(Path(vklab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "vklab", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_index_wiener_k5(capsys):
    code, out, _ = run(capsys, "index", "--graph6", "D~{", "--kind", "wiener")
    assert code == 0
    assert out.split() == ["-", "D~{", "wiener", "10"]


def test_index_all_kinds_k2(capsys):
    code, out, _ = run(capsys, "index", "--graph6", "A_", "--kind", "all",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    values = {r["kind"]: r["value"] for r in rows}
    assert values == {
        "wiener": "1", "harary": "1", "rdd": "2", "ecc_dist_sum": "2",
        "conn_ecc": "2", "adj_ecc_dist_sum": "2", "zagreb_m1": "2",
        "zagreb_m2": "1", "mult_zagreb_pi1": "1", "mult_zagreb_pi2": "1",
    }


def test_index_all_kinds_on_disconnected_graph(capsys):
    # B? is two isolated vertices: only the degree-only kinds are defined
    degree_only = {"zagreb_m1": "0", "zagreb_m2": "0", "mult_zagreb_pi1": "0",
                   "mult_zagreb_pi2": "1"}
    argv = ["index", "--graph6", "B?", "--kind", "all"]
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""
    values = {r["kind"]: r["value"] for r in csv.DictReader(io.StringIO(out))}
    assert values == {**dict.fromkeys(["wiener", "harary", "rdd", "ecc_dist_sum",
                                       "conn_ecc", "adj_ecc_dist_sum"], "undefined"),
                      **degree_only}
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert {tuple(line.split()[2:]) for line in out.splitlines()} == set(values.items())
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    optima = {r["kind"]: r["optimum"] for r in json.loads(out)}
    assert optima == {kind: None if value == "undefined" else {"num": int(value), "den": 1}
                      for kind, value in values.items()}


def test_index_rational_rendering(capsys):
    code, out, _ = run(capsys, "index", "--graph6", "Bg", "--kind", "harary")
    assert code == 0
    assert "5/2" in out


def test_index_file_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("A_\nBg\n")
    code, out, _ = run(capsys, "index", "--file", str(corpus),
                       "--kind", "harary", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["value"] for r in rows] == ["1", "5/2"]
    assert [r["line"] for r in rows] == ["1", "2"]


def test_index_parse_failure_is_line_addressed(tmp_path, capsys):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("A_\ngarbage!\n")
    code, _, err = run(capsys, "index", "--file", str(corpus), "--kind", "wiener")
    assert code == 1
    assert "line 2" in err


def test_index_lenient_skips_bad_lines(tmp_path, capsys):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("A_\ngarbage!\nBg\n")
    code, out, err = run(capsys, "index", "--file", str(corpus), "--kind", "wiener",
                         "--lenient", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["line"], r["value"]) for r in rows] == [("1", "1"), ("3", "4")]
    assert err == "skipped line 2: expected 130 data characters for n=40, got 7\n"


def test_separator_edged_line_is_an_invalid_character(tmp_path, capsys):
    # '\x1c' is whitespace to str.strip but not to graph6: the line is
    # malformed, not the K3 that the rest of it spells
    corpus = tmp_path / "separator.g6"
    corpus.write_text("\x1cBw\nBg\n")
    argv = ["index", "--file", str(corpus), "--kind", "wiener", "--format", "csv"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: line 1: invalid character '\\x1c'\n"
    code, out, err = run(capsys, *argv, "--lenient")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["line"], r["value"]) for r in rows] == [("2", "4")]
    assert err == "skipped line 1: invalid character '\\x1c'\n"


@pytest.mark.parametrize("argv,lines,message", [
    (["index", "--kind", "wiener"], "Bw\n@\nCF\n",
     "line 2: indices are defined for n >= 2 only, got n=1"),
    (["vk", "--k", "3"], "Bw\nA_\nCF\n", "line 2: need n >= k, got n=2 k=3"),
])
def test_unevaluable_line_is_line_addressed_and_lenient_skips_it(tmp_path, capsys, argv,
                                                                 lines, message):
    """A line that parses but cannot be measured is an error naming its
    line; --lenient skips it and reports it in line order with the
    malformed lines."""
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(lines + "garbage!\nDQc\n")
    argv = [*argv, "--file", str(corpus), "--format", "csv"]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, *argv, "--lenient")
    assert code == 0
    assert [r["line"] for r in csv.DictReader(io.StringIO(out))] == ["1", "3", "5"]
    assert err == (f"skipped {message}\n"
                   "skipped line 4: expected 130 data characters for n=40, got 7\n")


@pytest.mark.parametrize("argv,message", [
    (["vk", "--k", "1"], "error: k must be >= 2, got 1\n"),
    (["index", "--kind", "bogus"], "error: unknown kind 'bogus'; choose from: all, "
     + ", ".join(kind.value for kind in vklab.ALL_KINDS) + "\n"),
])
@pytest.mark.parametrize("lines", ["", "Bw\nCF\n"])
def test_argument_error_is_one_error_before_any_line(tmp_path, capsys, argv, message, lines):
    """--lenient skips lines, never a bad argument: that is one error, even
    for an empty corpus."""
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(lines)
    for lenient in ((), ("--lenient",)):
        assert run(capsys, *argv, "--file", str(corpus), *lenient) == (1, "", message)


def test_non_ascii_bytes_are_invalid_characters(tmp_path):
    # graph6 is ASCII; a byte outside it is an invalid character of its own
    # line under either mode, never a decoding traceback
    corpus = tmp_path / "bytes.g6"
    corpus.write_bytes(b"A_\nA\xff\n\xfe\nBg\n")
    argv = ["index", "--file", str(corpus), "--kind", "wiener", "--format", "csv"]
    code, out, err = run_process(*argv)
    assert (code, out) == (1, "")
    assert err == "error: line 2: invalid character '\\udcff'\n"
    code, out, err = run_process(*argv, "--lenient")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["line"], r["value"]) for r in rows] == [("1", "1"), ("4", "4")]
    assert err == ("skipped line 2: invalid character '\\udcff'\n"
                   "skipped line 3: invalid character '\\udcfe'\n")


def test_index_runs_one_bfs_pass_per_connected_line(tmp_path, capsys, monkeypatch):
    calls = []
    real = vklab.metrics.compute_metrics

    def counting(g):
        calls.append(vklab.to_graph6(g))
        return real(g)

    # `indices.kernel` is the one caller of compute_metrics
    monkeypatch.setattr(vklab.indices, "compute_metrics", counting)
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("D~{\nB?\nBg\nA_\n")  # B? is disconnected
    code, out, _ = run(capsys, "index", "--file", str(corpus), "--kind", "all",
                       "--format", "csv")
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 4 * 10
    assert calls == ["D~{", "Bg", "A_"]
    calls.clear()
    code, _, _ = run(capsys, "index", "--file", str(corpus), "--kind", "zagreb_m1")
    assert code == 0 and calls == []


@pytest.mark.parametrize("argv,message", [
    (["vk", "--graph6", "A_", "--k", "3"], "need n >= k"),
    (["index", "--graph6", "@", "--kind", "wiener"], "n >= 2 only"),
    (["fuzz", "--kind", "wiener", "--trials", "0"], "trials must be >= 1"),
    (["verify", "--claim", "thm4.1", "--nmax", "3"], "empty parameter grid"),
    (["fuzz", "--kind", "wiener", "--nmin", "64", "--nmax", "65"],
     "n_range must end at 64 or below, got 65"),
    (["index", "--graph6", "", "--kind", "all"], "empty line"),
    (["vk", "--graph6", "", "--k", "2"], "empty line"),
])
def test_degenerate_input_is_an_error_line(argv, message):
    code, out, err = run_process(*argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_verify_checks_every_grid_before_any_claim(capsys, monkeypatch):
    """`--scan-nmax 3` leaves thm3.1 an empty grid: the run refuses it
    before it evaluates a single formula claim."""
    def no_work(*args):
        raise AssertionError("a claim was checked before every grid was")

    monkeypatch.setattr(vklab.verify, "extremal_graph", no_work)
    code, out, err = run(capsys, "verify", "--claim", "all", "--nmax", "10",
                         "--scan-nmax", "3")
    assert (code, out, err) == (1, "", "error: empty parameter grid for claim thm3.1\n")


def test_vk_command(capsys):
    code, out, _ = run(capsys, "vk", "--graph6", "D~{", "--k", "2",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["value"] == "3"  # v_2(K_5)


def test_construct_prints_graph6_and_partition(capsys):
    code, out, _ = run(capsys, "construct", "--n", "6", "--m", "2", "--k", "2")
    assert code == 0
    assert "E}~o" in out and "2 2" in out


def test_construct_invalid_params(capsys):
    code, _, err = run(capsys, "construct", "--n", "6", "--m", "5", "--k", "2")
    assert code == 1 and "m must satisfy" in err


def test_scan_confirms_wiener(capsys):
    code, out, _ = run(capsys, "scan", "--n", "6", "--m", "2", "--k", "2",
                       "--kind", "wiener", "--format", "json")
    assert code == 0
    (report,) = json.loads(out)
    assert report["optimum"] == {"num": 17, "den": 1}
    assert report["flags"]["matches_construction"]
    assert report["flags"]["matches_closed_form"]
    assert report["params"]["class_size"] == 26538


def test_scan_m2_erratum_exits_2(capsys):
    code, out, _ = run(capsys, "scan", "--n", "6", "--m", "2", "--k", "2",
                       "--kind", "zagreb_m2", "--format", "json")
    assert code == 2
    (report,) = json.loads(out)
    assert report["optimum"] == {"num": 249, "den": 1}
    assert report["flags"]["matches_construction"]
    assert not report["flags"]["matches_closed_form"]


def test_scan_cap_is_an_error_line(capsys):
    code, out, err = run(capsys, "scan", "--n", "10", "--m", "2", "--k", "2",
                         "--kind", "wiener")
    assert code == 1 and out == ""
    assert err == "error: scans support 2 <= n <= 9, got 10\n"


@pytest.mark.parametrize("argv,message", [
    (["scan", "--n", "7", "--k", "3"], "the following arguments are required: --m"),
    (["scan", "--n", "8", "--m", "2", "--k", "3", "--large"],
     "unrecognized arguments: --large"),
    (["scan", "--n", "7", "--m", "x", "--k", "3"], "invalid int value: 'x'"),
    (["fuzz", "--kind", "bogus"], "unknown kind 'bogus'"),
    (["fuzz", "--kind", "wiener", "--format", "xml"], "invalid choice: 'xml'"),
    (["index", "--strict", "--graph6", "A_"], "unrecognized arguments: --strict"),
])
def test_usage_error_is_an_error_line(argv, message):
    """A usage error exits 1 like any operational error, not argparse's 2,
    which would read as a finding."""
    code, out, err = run_process(*argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1


def test_help_exits_0():
    code, out, _ = run_process("scan", "--help")
    assert code == 0 and "--workers" in out and "--large" not in out


@pytest.mark.parametrize("argv", [
    ["scan", "--n", "5", "--m", "1", "--k", "2", "--kind", "wiener", "--workers", "0"],
    ["verify", "--workers", "-1"],
])
def test_nonpositive_workers_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "workers must be >= 1" in err


def test_verify_m2_claim_exits_2(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "thm4.7-m2", "--nmax", "12",
                       "--format", "json")
    assert code == 2
    (report,) = json.loads(out)
    assert report["flags"]["refuted"] > 0
    row = next(v for v in report["verdicts"]
               if v["params"] == {"n": 6, "m": 2, "k": 2})
    assert row["expected"] == {"num": 185, "den": 1}
    assert row["actual"] == {"num": 249, "den": 1}


def test_verify_confirming_claim_exits_0(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "thm4.1", "--nmax", "8",
                       "--format", "json")
    assert code == 0
    (report,) = json.loads(out)
    assert report["flags"]["refuted"] == 0


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_values_past_the_int_digit_cap_render_in_full(capsys, fmt):
    """K64's mult_zagreb_pi2 is 63**(63*64), 7,255 digits: past CPython's
    default int -> str cap, rendered in full all the same, and the cap is
    back as it was once main returns. The expected digits come from decimal,
    which the cap does not govern."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    _, out, _ = run(capsys, "construct", "--n", "64", "--m", "62", "--k", "2")
    graph6 = out.split()[-1]
    code, out, err = run(capsys, "index", "--graph6", graph6, "--kind", "mult_zagreb_pi2",
                         "--format", fmt)
    assert code == 0 and err == ""
    want = str(decimal.Context(prec=8000).power(decimal.Decimal(63), 63 * 64))
    assert len(want) == 7255
    if fmt == "plain":
        assert out.split() == ["-", graph6, "mult_zagreb_pi2", want]
    elif fmt == "csv":
        assert list(csv.reader(io.StringIO(out)))[1] == ["-", graph6, "mult_zagreb_pi2", want]
    else:
        (report,) = json.loads(out, parse_int=str)
        assert report["optimum"] == {"num": want, "den": "1"}
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == cap


def test_verify_past_the_int_digit_cap_has_no_traceback():
    code, out, err = run_process("verify", "--claim", "thm4.7-pi2", "--nmax", "64",
                                 "--kmax", "2")
    assert code in (0, 2) and "Traceback" not in err
    assert out.splitlines()[-1].split()[:4] == ["thm4.7-pi2", "64", "62", "2"]


def test_fuzz_exits_0(capsys):
    code, out, _ = run(capsys, "fuzz", "--kind", "wiener", "--trials", "50",
                       "--nmin", "4", "--nmax", "6", "--seed", "1",
                       "--format", "json")
    assert code == 0
    (report,) = json.loads(out)
    assert report["flags"]["violations"] == 0


def test_unknown_kind_is_an_error(capsys):
    code, _, err = run(capsys, "index", "--graph6", "A_", "--kind", "wienerr")
    assert code == 1 and "unknown kind" in err


# ---------------------------------------------------------------------------
# golden files: the JSON schema is frozen
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("golden,argv", [
    ("scan_6_2_2_wiener.json",
     ["scan", "--n", "6", "--m", "2", "--k", "2", "--kind", "wiener"]),
    ("construct_6_2_2.json",
     ["construct", "--n", "6", "--m", "2", "--k", "2"]),
    ("fuzz_harary.json",
     ["fuzz", "--kind", "harary", "--trials", "25", "--nmin", "4",
      "--nmax", "6", "--seed", "5"]),
])
def test_golden_json(golden, argv, capsys):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (DATA / golden).read_text()


def _value(v):
    """A verdict value: {num, den} as p/q (p alone when den is 1), or text."""
    if not isinstance(v, dict):
        return v
    return str(v["num"]) if v["den"] == 1 else f"{v['num']}/{v['den']}"


def ledger_text(envelopes) -> str:
    """Each claim's verdict counts, then every verdict that is not
    confirmed with both values; a note line precedes each run of equal
    notes."""
    lines = []
    for env in envelopes:
        flags = env["flags"]
        lines.append(f"{env['claim']}: confirmed {flags['confirmed']}, refuted "
                     f"{flags['refuted']}, regime_flagged {flags['regime_flagged']}")
        note = None
        for v in env["verdicts"]:
            if v["verdict"] == "confirmed":
                continue
            if v["note"] != note:
                note = v["note"]
                lines.append(f"  note: {note}")
            p = v["params"]
            lines.append(f"  {v['verdict']} {v['kind']} ({p['n']},{p['m']},{p['k']}): "
                         f"expected {_value(v['expected'])}; actual {_value(v['actual'])}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("scan_nmax", [6, 7, 8])
def test_errata_ledger_is_frozen(capsys, scan_nmax):
    """The CI errata gate's ledger, and the same with the scan-backed claims
    up to n = 7 and n = 8; any drift in a verdict or value fails."""
    code, out, _ = run(capsys, "verify", "--claim", "all", "--nmax", "10",
                       "--scan-nmax", str(scan_nmax), "--format", "json")
    assert code == 2
    want = (DATA / f"ledger_n10_scan{scan_nmax}.txt").read_text()
    assert ledger_text(json.loads(out)) == want


def test_verify_json_bytes_are_frozen(capsys):
    """The ledger JSON byte for byte, not only as parsed: spacing, key order
    and escaping may not drift either."""
    code, out, _ = run(capsys, "verify", "--claim", "all", "--nmax", "8",
                       "--scan-nmax", "5", "--format", "json")
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3d0883fdaf6a50fb1810802f3be8df6b067653944a78dcf6bb2d4ea7f30d7c1c")


def test_verify_unknown_claim_is_one_error(capsys):
    message = f"error: unknown claim 'thm9.9'; known: {', '.join(vklab.known_claims())}\n"
    for claim in ("thm9.9", "THM9.9"):
        assert run(capsys, "verify", "--claim", claim) == (1, "", message)


def test_verify_claim_ids_are_case_insensitive(capsys):
    """`ALL` is `all`, and a claim is echoed under its canonical id."""
    argv = ["--nmax", "5", "--scan-nmax", "4", "--format", "csv"]
    assert (run(capsys, "verify", "--claim", "ALL", *argv)
            == run(capsys, "verify", "--claim", "all", *argv))
    code, out, _ = run(capsys, "verify", "--claim", "THM4.1", "--format", "json")
    assert code == 0 and [env["claim"] for env in json.loads(out)] == ["thm4.1"]
    _, out, _ = run(capsys, "verify", "--claim", "Cor4.2", "--nmax", "5")
    assert {line.split()[0] for line in out.splitlines()} == {"cor4.2"}


# text with JSON's own punctuation, escapes and non-ASCII, plus anything else
_json_text_values = st.text(
    st.sampled_from('"\\[]{},: \n\té漢\U0001f600\x00') | st.characters(), max_size=8)
_json_scalars = (_json_text_values | st.integers(-10**40, 10**40) | st.booleans()
                 | st.none())
_json_keys = _json_text_values | st.integers() | st.booleans() | st.none() | st.floats()
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_json_keys, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_writer_is_json_dumps(obj):
    """Nested dicts, lists and tuples, empty ones at any depth included."""
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


def _no_c_encoder(depth):
    raise AssertionError("the C encoder was used")


def test_json_writer_without_the_c_encoder(monkeypatch):
    monkeypatch.setattr(cli, "c_make_encoder", None)
    monkeypatch.setattr(cli, "_depth_encoder", _no_c_encoder)
    obj = [{"a": [1, {"b": ()}], "c": 'é"]', 2: None}, [], "x"]
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    [{"flags": {"x": Fraction(1, 2)}}],         # in a container C encodes
    [{"flags": {"x": [1]}, "y": Fraction(1, 2)}],  # in a container walked here
    [{Fraction(1, 2): [1]}],                     # as a key walked here
    Fraction(1, 2),
])
def test_json_writer_refuses_what_json_refuses(obj):
    """A value `json` cannot write, a Fraction leaking into an envelope say,
    is the same TypeError."""
    with pytest.raises(TypeError, match="Fraction"):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError, match="Fraction"):
        cli._json_text(obj)


def _emitted(records, header, fmt) -> str:
    with redirect_stdout(io.StringIO()) as buf:
        cli._emit(records, header, fmt, None)
    return buf.getvalue()


def _generator(records):
    yield from records


_RECORD_PASSING = pytest.mark.parametrize("passed", [list, _generator])


@_RECORD_PASSING
@pytest.mark.parametrize("c_make_encoder,depth_encoder",
                         [(cli.c_make_encoder, cli._depth_encoder), (None, _no_c_encoder)],
                         ids=["c", "python"])
@settings(max_examples=150, deadline=None)
@given(st.lists(_json_values, max_size=6))
@example([])
@example([{"a": [1, {"b": ()}], "c": 'é"]'}])
def test_streamed_json_is_json_dumps(passed, c_make_encoder, depth_encoder, records):
    """Records written one at a time, from a list or a generator, are the
    bytes of the whole list rendered at once, with or without C."""
    with mock.patch.multiple(cli, c_make_encoder=c_make_encoder,
                             _depth_encoder=depth_encoder):
        text = _emitted(passed(records), [], "json")
    assert text == json.dumps(records, indent=2) + "\n"


def _joined_csv(records, header) -> str:
    """Reference renderer: the whole CSV text built at once, then returned."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(records)
    return buf.getvalue()


def _joined_plain(records) -> str:
    """Reference renderer: the whole plain text as one join."""
    return "".join("  ".join(str(c) for c in row) + "\n" for row in records)


_cells = (st.text(st.sampled_from(',"\'\n\r\t é') | st.characters(), max_size=6)
          | st.integers() | st.booleans() | st.none())


@_RECORD_PASSING
@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_cells, max_size=5), max_size=6),
       st.lists(st.text(max_size=4), max_size=4))
@example([], ["line", "value"])
def test_streamed_csv_and_plain_are_the_joined_text(passed, rows, header):
    assert _emitted(passed(rows), header, "csv") == _joined_csv(rows, header)
    assert _emitted(passed(rows), header, "plain") == _joined_plain(rows)


def test_json_ledger_is_written_in_bounded_memory(tmp_path, monkeypatch):
    """Writing the verify JSON ledger allocates less than the text it
    writes: each claim's envelope is built and rendered only when it is
    written, and the report is never held whole as text."""
    emit, peaks = cli._emit, []

    def traced(*args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            emit(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_emit", traced)
    target = tmp_path / "ledger.json"
    assert main(["verify", "--claim", "all", "--nmax", "8", "--scan-nmax", "5",
                 "--format", "json", "--out", str(target)]) == 2
    (peak,) = peaks
    size = target.stat().st_size
    assert peak < size, f"{peak} bytes allocated to write {size}"


def test_out_into_a_missing_directory_is_an_error_line(tmp_path, capsys):
    target = tmp_path / "missing" / "ledger.json"
    code, out, err = run(capsys, "verify", "--claim", "thm4.1", "--nmax", "5",
                         "--format", "json", "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_strict_corpus_error_writes_no_file(tmp_path, capsys, fmt):
    """Every record is built before the output is opened, so a bad line
    anywhere in the corpus leaves no partial report behind."""
    corpus = tmp_path / "bad.g6"
    corpus.write_text("A_\ngarbage!\n")
    target = tmp_path / "report"
    code, out, err = run(capsys, "index", "--file", str(corpus), "--format", fmt,
                         "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 2: ") and err.count("\n") == 1
    assert not target.exists()


def test_json_schema_keys_are_stable(capsys):
    _, out, _ = run(capsys, "scan", "--n", "5", "--m", "1", "--k", "2",
                    "--kind", "all", "--format", "json")
    for report in json.loads(out):
        assert list(report) == ["claim", "params", "kind", "optimum",
                                "optimizers", "flags", "verdicts"]


def _json_value(v):
    if isinstance(v, dict) and set(v) == {"num", "den"}:
        return Fraction(v["num"], v["den"])
    return v


def _text_value(s):
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    try:
        return Fraction(int(s))
    except ValueError:
        return s


def test_csv_and_json_values_agree(capsys):
    """`index` and `vk` build each format on its own; the values agree."""
    for argv in (["index", "--graph6", "EF~w", "--kind", "all"],
                 ["vk", "--graph6", "EF~w", "--k", "2"]):
        _, jout, _ = run(capsys, *argv, "--format", "json")
        _, cout, _ = run(capsys, *argv, "--format", "csv")
        jvals = [(r["kind"], _json_value(r["optimum"])) for r in json.loads(jout)]
        cvals = [(r.get("kind"), _text_value(r["value"]))
                 for r in csv.DictReader(io.StringIO(cout))]
        assert jvals == cvals


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "construct", "--n", "7", "--m", "1", "--k", "3",
                       "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    (report,) = json.loads(target.read_text())
    assert report["params"]["sizes"] == [2, 2, 2]
