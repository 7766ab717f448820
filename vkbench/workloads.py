"""The three benchmark workloads: inputs, the timed call, and its check.

Each workload drives vklab only through public entry points
(`vklab.cli.main`, `vklab.search.*`). `prepare` builds the inputs from the
seed and is part of set-up time; `run` is the timed call; `check` runs
outside the timed region and returns (attempted, failed) operations.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

FROZEN = Path(__file__).resolve().parent / "frozen"

DEFAULT_SEED = 1


def value_text(v) -> str | None:
    """A JSON-rendered exact value ({num, den}, string or null) as text."""
    if isinstance(v, dict):
        return str(v["num"]) if v["den"] == 1 else f"{v['num']}/{v['den']}"
    return v


def load_frozen(name: str):
    with open(FROZEN / name) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify-ledger
# ---------------------------------------------------------------------------

def ledger_tuples(envelopes) -> dict:
    """claim -> sorted verdict tuples (n, m, k, kind, verdict, expected, actual).

    Only these fields are compared, so extra envelope keys (a later `stats`
    block, say) and the verdict order do not matter.
    """
    out: dict = {}
    for env in envelopes:
        rows = out.setdefault(env["claim"], [])
        for v in env["verdicts"]:
            p = v["params"]
            rows.append([p["n"], p["m"], p["k"], v["kind"], v["verdict"],
                         value_text(v["expected"]), value_text(v["actual"])])
    return {claim: sorted(rows, key=json.dumps) for claim, rows in out.items()}


def check_ledger(envelopes, frozen: dict) -> tuple[int, int]:
    """One operation per frozen claim; a claim fails unless its tuples match."""
    got = ledger_tuples(envelopes)
    failed = sum(got.get(claim) != rows for claim, rows in frozen.items())
    return len(frozen), failed


class VerifyLedger:
    name = "verify-ledger"
    argv = ["verify", "--claim", "all", "--nmax", "10", "--scan-nmax", "6",
            "--format", "json"]
    exit_code = 2

    def prepare(self, vk, seed):
        # the ledger gate has fixed inputs; the seed does not enter
        return list(self.argv)

    def load_expected(self, vk, inputs, seed):
        return load_frozen("verify_ledger.json")

    def operations(self, expected) -> int:
        return len(expected)

    def work(self, expected) -> int:
        return sum(len(rows) for rows in expected.values())

    def run(self, vk, inputs, out, workers):
        return vk.cli.main(inputs + ["--out", str(out)])

    def check(self, vk, inputs, expected, rc, out) -> tuple[int, int]:
        if rc != self.exit_code:
            return len(expected), len(expected)
        with open(out) as fh:
            return check_ledger(json.load(fh), expected)


# ---------------------------------------------------------------------------
# scan-n7-k3
# ---------------------------------------------------------------------------

class ScanN7K3:
    name = "scan-n7-k3"
    argv = ["scan", "--n", "7", "--m", "2", "--k", "3", "--kind", "zagreb_m1",
            "--format", "json"]
    expected = {"class_size": 1865842, "optimum": "208", "optimizers": ["F]~~w"]}

    def prepare(self, vk, seed):
        # one fixed class; the seed does not enter
        return list(self.argv)

    def load_expected(self, vk, inputs, seed):
        return self.expected

    def operations(self, expected) -> int:
        return 1

    def work(self, expected) -> int:
        return expected["class_size"]

    def run(self, vk, inputs, out, workers):
        return vk.cli.main(inputs + ["--workers", str(workers), "--out", str(out)])

    def check(self, vk, inputs, expected, rc, out) -> tuple[int, int]:
        if rc != 0:
            return 1, 1
        with open(out) as fh:
            (env,) = json.load(fh)
        got = {"class_size": env["params"]["class_size"],
               "optimum": value_text(env["optimum"]),
               "optimizers": env["optimizers"]}
        return 1, int(got != expected)


# ---------------------------------------------------------------------------
# corpus-n8-k3
# ---------------------------------------------------------------------------

CORPUS_SIZE = 10_000
CORPUS_N = 8


def graph6_line(n: int, edges: set) -> str:
    """graph6 of a graph with n <= 62 vertices (column-major upper triangle)."""
    bits = [int((u, v) in edges) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
                   for i in range(0, len(bits), 6))
    return chr(63 + n) + body


def make_corpus(seed: int, size: int = CORPUS_SIZE, n: int = CORPUS_N) -> list[str]:
    """`size` graph6 lines on n vertices; each line's edge density is drawn
    uniformly from [0.25, 0.75]. Disconnected graphs are kept."""
    rng = random.Random(seed)
    lines = []
    for _ in range(size):
        p = rng.uniform(0.25, 0.75)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        lines.append(graph6_line(n, edges))
    return lines


def corpus_oracle(vk, lines, n: int, m: int, k: int) -> dict:
    """kind -> expected report, by a plain per-graph loop.

    Membership goes through `vertex_k_partiteness` (not the capped filter
    the scan uses) and every value through `evaluate`.
    """
    members = []
    for line in lines:
        g = vk.graphs.parse_graph6(line)
        if (g.n == n and vk.graphs.is_connected(g)
                and vk.partiteness.vertex_k_partiteness(g, k) <= m):
            members.append((g, vk.metrics.compute_metrics(g)))
    expected = {}
    for kind in vk.indices.ALL_KINDS:
        values = [vk.indices.evaluate(kind, g, metrics) for g, metrics in members]
        pick = min if vk.indices.direction(kind) is vk.indices.Direction.DECREASING else max
        best = pick(values)
        optimizers = {vk.graphs.to_graph6(vk.graphs.canonical_graph(g))
                      for (g, _), val in zip(members, values) if val == best}
        expected[kind.value] = {"class_size": len(members), "optimum": str(best),
                                "optimizers": sorted(optimizers)}
    return expected


class CorpusN8K3:
    name = "corpus-n8-k3"
    m, k = 2, 3

    def prepare(self, vk, seed):
        return make_corpus(seed)

    def load_expected(self, vk, inputs, seed):
        if seed == DEFAULT_SEED:
            return load_frozen("corpus_n8_k3_seed1.json")
        return corpus_oracle(vk, inputs, CORPUS_N, self.m, self.k)

    def operations(self, expected) -> int:
        return len(expected)

    def work(self, expected) -> int:
        return CORPUS_SIZE * len(expected)

    def run(self, vk, inputs, out, workers):
        params = vk.partiteness.ClassParams(CORPUS_N, self.m, self.k)
        return {kind.value: vk.search.scan_corpus(vk.search.load_graph6_corpus(inputs),
                                                  params, kind)
                for kind in vk.indices.ALL_KINDS}

    def check(self, vk, inputs, expected, reports, out) -> tuple[int, int]:
        got = {kind: {"class_size": r.class_size, "optimum": str(r.optimum),
                      "optimizers": r.optimizer_graph6()}
               for kind, r in reports.items()}
        failed = sum(got.get(kind) != want for kind, want in expected.items())
        return len(expected), failed


WORKLOADS = {w.name: w for w in (VerifyLedger(), ScanN7K3(), CorpusN8K3())}
