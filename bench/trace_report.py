"""Per-layer metrics of every workload, with the tracing overhead.

    python3 bench/trace_report.py [--seed 0] [--seconds 40] [--workload NAME ...]

For each workload, runs `bench/run.py` once with tracing off and once with
tracing on, each in its own process, one after the other, and prints every
per-layer metric of the traced run plus the overhead: traced wall_s minus
untraced wall_s.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int):
    """(detail, result) from the last two lines of one benchmark run."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900)
    detail, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(detail)["detail"], json.loads(result)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args(argv)
    for wl in args.workload:
        plain, _ = run(wl, args.seed, args.seconds, 0)
        traced, result = run(wl, args.seed, args.seconds, 1)
        print(f"== {wl}  (seed {args.seed}, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']})")
        for name, m in result["metrics"].items():
            print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'wall_s untraced / traced':48s} {plain['wall_s']:>14.6g} / "
              f"{traced['wall_s']:.6g} s")
        print(f"  {'tracing overhead':48s} {traced['wall_s'] - plain['wall_s']:>14.6g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
