"""Benchmark of cubiconics: one workload per process, checked against oracles.

    python3 bench/run.py --workload corpus_pencils --seed 1 --seconds 40 --trace 0

Runs whole passes over the workload's operations until the next pass would
end after --seconds (at least one pass), checks every answer, and prints as
its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics from
a traced run with --trace 1.  The line before it is a JSON `detail` object
with the digest of the answers and every failure with its reason.
"""

from __future__ import annotations

import os

# One thread per process: the library is meant to be measured single-threaded
# on a 2-core machine, and numpy reads these when it is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="feeds height_pairing_check and the sampled pencil "
                         "parameters of the Cayley cross-check")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="only time import and input parsing, print seconds")
    return ap.parse_args(argv)


def check_checkout() -> None:
    """The library and its data must be in the checkout; nothing is
    installed from elsewhere."""
    missing = [p for p in (ROOT / "src" / "cubiconics" / "__init__.py",
                           ROOT / "data" / "cubics_corpus.txt") if not p.is_file()]
    if missing:
        sys.exit(f"bench: missing {', '.join(map(str, missing))}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)


def probe_setup(workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    workloads.make(workload, seed)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, so that each one pays for
    importing cubiconics and numpy."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_pass(ops, tracer, first_answers):
    """One pass over every operation; returns (seconds in operations,
    per-operation records)."""
    Failure = workloads.Failure
    wall = 0.0
    records = []
    for op in ops:
        tracer.enabled = tracer.installed
        t0 = time.perf_counter()
        try:
            with tracer.span(op.name):
                answer = op.run()
            error = None
        except Exception as exc:  # any raise is a failed operation, recorded
            error = Failure(type(exc).__name__, str(exc))
        wall += time.perf_counter() - t0
        tracer.enabled = False
        if error is None:
            try:
                canon = op.check(answer)
            except Failure as exc:
                error = exc
        if error is None and op.name in first_answers and first_answers[op.name] != canon:
            error = Failure("nondeterministic", "answer differs from the first pass")
        rec = {"op": op.name, "ok": error is None}
        if error is None:
            first_answers.setdefault(op.name, canon)
            rec["answer"] = canon
        else:
            rec["kind"], rec["reason"] = error.kind, error.reason
            rec["expected"] = workloads.KNOWN_FAULTS.get(op.name) == error.kind
        records.append(rec)
    return wall, records


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    wl = workloads.make(args.workload, args.seed)
    tracer = Tracer()
    if args.trace:
        tracer.install()

    first_answers = {}
    walls, passes = [], []
    start = time.perf_counter()
    try:
        while True:
            wall, records = run_pass(wl.ops, tracer, first_answers)
            walls.append(wall)
            passes.append(records)
            elapsed = time.perf_counter() - start
            if len(passes) >= wl.MIN_PASSES and elapsed + wall > args.seconds:
                break
        if args.trace:
            tracer.measure_memory(wl.ops)
    finally:
        tracer.uninstall()

    records = [r for p in passes for r in p]
    failures = [r for r in records if not r["ok"]]
    correct = all(r["expected"] for r in failures)
    digest = hashlib.sha256(json.dumps(
        [[r["op"], r.get("answer", r.get("reason"))] for r in passes[0]],
        sort_keys=True).encode()).hexdigest()
    wall_s = statistics.median(walls)
    if args.trace:
        metrics = tracer.per_layer(len(passes))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "pass_wall_s": walls, "wall_s": wall_s,
        "digest": digest,
        "failures": [{"pass": i, **{k: r[k] for k in ("op", "kind", "reason", "expected")}}
                     for i, p in enumerate(passes) for r in p if not r["ok"]],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
