"""Regenerate the frozen reference values in `frozen/`.

    python3 vkbench/freeze.py

Run this only when the errata ledger or the corpus definition changes on
purpose, and review the diff of `frozen/` like code: the benchmark's
correctness check is only as good as these files.

  verify_ledger.json         claim -> verdict tuples of
                             `vklab verify --claim all --nmax 10 --scan-nmax 6`
  corpus_n8_k3_seed1.json    kind -> class size, optimum and canonical
                             optimizers of the seed-1 corpus, from the plain
                             per-graph oracle, cross-checked against
                             `scan_corpus`
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, import_vklab
from workloads import (DEFAULT_SEED, FROZEN, WORKLOADS, corpus_oracle, ledger_tuples)


def write(name: str, data: dict) -> None:
    """One key per line, each value as one line of JSON, for readable diffs."""
    items = [f"{json.dumps(key)}: {json.dumps(data[key])}" for key in sorted(data)]
    with open(FROZEN / name, "w") as fh:
        fh.write("{\n" + ",\n".join(items) + "\n}\n")


def main() -> int:
    vk = import_vklab()

    verify = WORKLOADS["verify-ledger"]
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "ledger.json"
        rc = verify.run(vk, verify.prepare(vk, DEFAULT_SEED), out, 1)
        if rc != verify.exit_code:
            raise SystemExit(f"verify exited {rc}, expected {verify.exit_code}")
        with open(out) as fh:
            write("verify_ledger.json", ledger_tuples(json.load(fh)))

    corpus = WORKLOADS["corpus-n8-k3"]
    lines = corpus.prepare(vk, DEFAULT_SEED)
    expected = corpus_oracle(vk, lines, 8, corpus.m, corpus.k)
    attempted, failed = corpus.check(vk, lines, expected, corpus.run(vk, lines, None, 1),
                                     None)
    if failed:
        raise SystemExit(f"scan_corpus disagrees with the oracle on {failed} kinds")
    write("corpus_n8_k3_seed1.json", expected)
    return 0


if __name__ == "__main__":
    sys.exit(main())
