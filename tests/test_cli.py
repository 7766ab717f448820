"""Command-line behaviors: worked examples, golden JSON, CSV/JSON value
agreement, and the exit-code contract (0 confirmed, 2 findings, 1 error)."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import vklab
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

    # `evaluate` falls back to its own import when handed no metrics
    monkeypatch.setattr(vklab.cli, "compute_metrics", counting)
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


@pytest.mark.parametrize("scan_nmax", [6, 7])
def test_errata_ledger_is_frozen(capsys, scan_nmax):
    """The CI errata gate's ledger, and the same with the scan-backed claims
    up to n = 7; any drift in a verdict or value fails."""
    code, out, _ = run(capsys, "verify", "--claim", "all", "--nmax", "10",
                       "--scan-nmax", str(scan_nmax), "--format", "json")
    assert code == 2
    want = (DATA / f"ledger_n10_scan{scan_nmax}.txt").read_text()
    assert ledger_text(json.loads(out)) == want


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
    argv = ["index", "--graph6", "EF~w", "--kind", "all"]
    _, jout, _ = run(capsys, *argv, "--format", "json")
    _, cout, _ = run(capsys, *argv, "--format", "csv")
    jvals = [(r["kind"], _json_value(r["optimum"])) for r in json.loads(jout)]
    cvals = [(r["kind"], _text_value(r["value"]))
             for r in csv.DictReader(io.StringIO(cout))]
    assert jvals == cvals


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "construct", "--n", "7", "--m", "1", "--k", "3",
                       "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    (report,) = json.loads(target.read_text())
    assert report["params"]["sizes"] == [2, 2, 2]
