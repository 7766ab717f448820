"""Self-tests of the benchmark itself.

    python3 -m pytest vkbench -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import pytest

from run import ROOT, import_vklab
from tracer import Tracer, vklab_modules
from workloads import WORKLOADS, graph6_line, load_frozen, make_corpus

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def vk():
    return import_vklab()


def test_corpus_is_a_function_of_the_seed(vk):
    a = make_corpus(7, size=300)
    assert a == make_corpus(7, size=300)
    assert a != make_corpus(8, size=300)
    graphs = [vk.graphs.parse_graph6(line) for line in a]
    assert {g.n for g in graphs} == {8}
    assert not all(vk.graphs.is_connected(g) for g in graphs)


def test_graph6_encoder_matches_vklab(vk):
    rng = random.Random(3)
    for n in range(2, 12):
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5}
        assert graph6_line(n, edges) == vk.graphs.to_graph6(vk.graphs.from_edges(n, edges))


def test_tampered_frozen_verdict_is_a_failure(vk, tmp_path):
    claim = "thm4.7-m2"  # the 185-vs-249 second-Zagreb erratum; cheap to verify
    ledger = WORKLOADS["verify-ledger"]
    frozen = {claim: load_frozen("verify_ledger.json")[claim]}
    out = tmp_path / "ledger.json"
    rc = vk.cli.main(["verify", "--claim", claim, "--nmax", "10", "--format", "json",
                      "--out", str(out)])
    assert ledger.check(vk, None, frozen, rc, out) == (1, 0)

    tampered = {claim: [list(row) for row in frozen[claim]]}
    row = next(r for r in tampered[claim] if r[4] == "refuted")
    row[6] = "185"
    assert ledger.check(vk, None, tampered, rc, out) == (1, 1)
    assert ledger.check(vk, None, frozen, 0, out) == (1, 1)
    assert ledger.check(vk, None, {**frozen, "thm3.1": []}, rc, out) == (2, 1)


def test_traced_run_restores_every_namespace(vk, tmp_path):
    before = {m.__name__: dict(vars(m)) for m in vklab_modules()}
    tracer = Tracer()
    with tracer:
        assert vk.search.code_to_adj is not before["vklab.search"]["code_to_adj"]
        rc = vk.cli.main(["verify", "--claim", "thm4.6-direction", "--nmax", "5",
                          "--scan-nmax", "5", "--format", "json",
                          "--out", str(tmp_path / "out.json")])
    assert rc == 2
    after = {m.__name__: dict(vars(m)) for m in vklab_modules()}
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys()
        changed = [k for k, v in namespace.items() if after[name][k] is not v]
        assert not changed, (name, changed)
    metrics = tracer.layer_metrics(1.0, 1.0)
    assert metrics["graphs.decode.calls"] > 0       # lazily imported enumerate_graphs
    assert metrics["partiteness.calls"] > 0         # lazily imported partiteness_within
    assert metrics["cli.calls"] == 1


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "vkbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = bench("corpus-n8-k3", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        # the layer self times account for the traced wall time
        assert values["trace.unattributed_s"] < 0.01 * values["trace.wall_s"]


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
