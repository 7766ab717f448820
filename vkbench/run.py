"""vklab benchmark: one workload, end-to-end or per-layer metrics.

    python3 vkbench/run.py --workload verify-ledger --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/` directory and nowhere else. With `--trace 0` the workload is timed
cold (sweep cache cleared, fresh `--out` file) until the next repetition
would overrun `--seconds`, and the medians are reported. With `--trace 1`
one untraced and one traced repetition are made with a single worker and
the per-layer metrics of `tracer.py` are reported. Outputs are checked
outside the timed region. The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
WORKERS = 2          # scan-n7-k3's pool size; verify and corpus ignore it
TRACE_WORKERS = 1    # spans in forked workers would be lost

E2E_UNITS = {"wall_s": "s", "throughput": "1/s", "setup_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def import_vklab():
    """Import vklab afresh from the checkout's `src/`, dropping any loaded copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "vklab" or n.startswith("vklab.")]:
        del sys.modules[name]
    vk = importlib.import_module("vklab")
    for layer in LAYERS:
        importlib.import_module(f"vklab.{layer}")
    if Path(vk.__file__).resolve().parent != SRC / "vklab":
        raise ImportError(f"vklab imported from {vk.__file__}, not from {SRC}")
    return vk


# One set-up in a fresh interpreter, timed inside it: a user pays the import
# in every new process, and separate processes also spread the samples over
# interpreter layouts and moments instead of timing one of each.
_SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import run
t0 = time.perf_counter()
vk = run.import_vklab()
run.WORKLOADS[sys.argv[2]].prepare(vk, int(sys.argv[3]))
print(time.perf_counter() - t0)
"""


def setup_seconds(workload, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(Path(__file__).parent), workload.name,
         str(seed)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def git_commit() -> str:
    """HEAD of the checkout, read from its own `.git` only; else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Sample:
    """One repetition of the timed call; `result` is an exception if it raised."""

    result: object
    out: Path
    wall: float
    cpu: float


def timed_call(workload, vk, inputs, out, workers, tracer=None) -> Sample:
    vk.search.clear_sweep_cache()
    with tracer or contextlib.nullcontext():
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = workload.run(vk, inputs, out, workers)
        except Exception as exc:  # counted as failed operations by `check`
            result = exc
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    return Sample(result, out, wall, cpu)


def check(workload, vk, inputs, expected, samples) -> tuple[int, int]:
    """(attempted, failed) operations over all samples; a raise fails them all."""
    attempted = failed = 0
    for s in samples:
        ops = workload.operations(expected)
        a = f = ops
        if not isinstance(s.result, Exception):
            try:
                a, f = workload.check(vk, inputs, expected, s.result, s.out)
            except (OSError, ValueError, KeyError, TypeError):
                pass
        attempted += a
        failed += f
    return attempted, failed


def end_to_end(workload, vk, inputs, tmp, seconds) -> list[Sample]:
    """Cold repetitions until the next one would overrun `seconds`."""
    samples: list[Sample] = []
    while not samples or (sum(s.wall for s in samples)
                          + statistics.median(s.wall for s in samples) <= seconds):
        samples.append(timed_call(workload, vk, inputs,
                                  tmp / f"out-{len(samples)}.json", WORKERS))
    return samples


def per_layer(workload, vk, inputs, tmp) -> tuple[list[Sample], Tracer]:
    """One untraced and one traced repetition, both with one worker."""
    untraced = timed_call(workload, vk, inputs, tmp / "out-untraced.json",
                          TRACE_WORKERS)
    tracer = Tracer()
    traced = timed_call(workload, vk, inputs, tmp / "out-traced.json",
                        TRACE_WORKERS, tracer)
    return [untraced, traced], tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        vk = import_vklab()
    except ImportError as exc:
        print(f"error: cannot import vklab from {SRC}: {exc}", file=sys.stderr)
        return 1
    inputs = workload.prepare(vk, args.seed)
    setup = [] if args.trace else [setup_seconds(workload, args.seed)
                                   for _ in range(SETUP_REPEATS)]
    tmp = Path(tempfile.mkdtemp(prefix=".vkbench-", dir=ROOT))
    try:
        if args.trace:
            samples, tracer = per_layer(workload, vk, inputs, tmp)
        else:
            samples = end_to_end(workload, vk, inputs, tmp, args.seconds)
        peak = peak_rss_mb()  # before the checks, which may build an oracle
        expected = workload.load_expected(vk, inputs, args.seed)
        attempted, failed = check(workload, vk, inputs, expected, samples)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        untraced, traced = samples
        metrics = tracer.layer_metrics(traced.wall, untraced.wall)
        units = {name: layer_unit(name) for name in metrics}
    else:
        work = workload.work(expected)
        metrics = {
            "wall_s": statistics.median(s.wall for s in samples),
            "throughput": statistics.median(work / s.wall for s in samples),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(s.cpu for s in samples),
            "peak_rss_mb": peak,
        }
        units = E2E_UNITS
    env = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
           "repetitions": len(samples), "nproc": os.cpu_count(),
           "python": platform.python_version(), "vklab": vk.__version__,
           "workers": TRACE_WORKERS if args.trace else WORKERS,
           "commit": git_commit()}
    print("env " + json.dumps(env, sort_keys=True))
    print("repetition walls = " + " ".join(f"{s.wall:.4f}" for s in samples) + " s")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"error_rate = {failed / attempted} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
